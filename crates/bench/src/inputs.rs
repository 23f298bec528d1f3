//! The evaluation inputs: deterministic, scaled-down stand-ins for the
//! paper's Table III graphs.
//!
//! | ours  | stands in for | shape matched                                  |
//! |-------|---------------|------------------------------------------------|
//! | kron  | kron30        | Graph500 Kronecker, weights .57/.19/.19/.05    |
//! | gshx  | gsh15         | web crawl, |E|/|V| ≈ 34                        |
//! | cwx   | clueweb12     | web crawl, |E|/|V| ≈ 43                        |
//! | ukx   | uk14          | web crawl, |E|/|V| ≈ 60                        |
//!
//! (wdc12 is the same family at 4× scale; the `--scale large` preset adds
//! a `wdcx` stand-in.) Graphs are generated once and cached as `.bgr`
//! files under `target/cusp-data/` (override with `CUSP_DATA_DIR`), so
//! benchmark binaries exercise the real disk-reading phase.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cusp_graph::gen::{kronecker, powerlaw, KroneckerConfig, PowerLawConfig};
use cusp_graph::{read_bgr, write_bgr, Csr};

/// Input scale presets (node counts multiply by the factor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Fast CI-sized runs.
    Small,
    /// Default benchmarking size.
    Medium,
    /// Stress size (adds `wdcx`).
    Large,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    fn factor(self) -> usize {
        match self {
            Scale::Small => 1,
            Scale::Medium => 4,
            Scale::Large => 16,
        }
    }

    /// Reads the scale from argv (`--scale small|medium|large`) or the
    /// `CUSP_SCALE` environment variable; defaults to `Small` so that a
    /// bare `cargo run` finishes quickly.
    pub fn from_env() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for w in args.windows(2) {
            if w[0] == "--scale" {
                return Scale::parse(&w[1])
                    .unwrap_or_else(|| panic!("unknown scale '{}'", w[1]));
            }
        }
        std::env::var("CUSP_SCALE")
            .ok()
            .and_then(|s| Scale::parse(&s))
            .unwrap_or(Scale::Small)
    }
}

/// One evaluation input.
pub struct Input {
    /// Short name used in tables ("kron", "gshx", …).
    pub name: &'static str,
    /// Cached `.bgr` path (directed version).
    pub path: PathBuf,
    /// The in-memory graph.
    pub graph: Arc<Csr>,
}

/// Bumped whenever a generator changes, so stale caches are never reused.
const GEN_VERSION: u32 = 2;

fn data_dir() -> PathBuf {
    std::env::var("CUSP_DATA_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/cusp-data"))
}

/// Loads `name` from the cache, or generates it and caches it. A cache
/// file appears whole or not at all: it is written under a name unique to
/// this process and call, then renamed into place, so a reader racing the
/// writer (two test binaries, or two threads) never sees half a graph.
fn cached(name: &str, scale: Scale, gen: impl FnOnce() -> Csr) -> Input {
    cached_in(&data_dir(), name, scale, gen)
}

fn cached_in(dir: &Path, name: &str, scale: Scale, gen: impl FnOnce() -> Csr) -> Input {
    static WRITES: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir).expect("cannot create data dir");
    let path = dir.join(format!("{name}-{:?}-v{GEN_VERSION}.bgr", scale));
    let graph = if path.exists() {
        read_bgr(&path).expect("corrupt cached graph; delete target/cusp-data")
    } else {
        let g = gen();
        let write = WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{write}.tmp", std::process::id()));
        write_bgr(&tmp, &g).expect("cannot cache graph");
        std::fs::rename(&tmp, &path).expect("cannot cache graph");
        g
    };
    let name: &'static str = Box::leak(name.to_string().into_boxed_str());
    Input {
        name,
        path,
        graph: Arc::new(graph),
    }
}

/// Generates (or loads from cache) the standard evaluation inputs.
pub fn standard_inputs(scale: Scale) -> Vec<Input> {
    let f = scale.factor();
    let mut inputs = vec![
        cached("kron", scale, move || {
            let s = match f {
                1 => 14,
                4 => 16,
                _ => 18,
            };
            kronecker(KroneckerConfig::graph500(s, 16, 0xC05B))
        }),
        cached("gshx", scale, move || {
            powerlaw(PowerLawConfig::webcrawl(15_000 * f, 34.0, 0x6511))
        }),
        cached("cwx", scale, move || {
            powerlaw(PowerLawConfig::webcrawl(12_000 * f, 43.0, 0xC1E8))
        }),
        cached("ukx", scale, move || {
            powerlaw(PowerLawConfig::webcrawl(9_000 * f, 60.0, 0x0514))
        }),
    ];
    if scale == Scale::Large {
        inputs.push(cached("wdcx", scale, move || {
            powerlaw(PowerLawConfig::webcrawl(40_000 * f, 36.0, 0x3D12))
        }));
    }
    inputs
}

/// The two inputs the paper's drill-down exhibits focus on (Fig. 4,
/// Tables VI/VII use clueweb12 and uk14).
pub fn drilldown_inputs(scale: Scale) -> Vec<Input> {
    standard_inputs(scale)
        .into_iter()
        .filter(|i| i.name == "cwx" || i.name == "ukx")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_cached_and_stable() {
        std::env::set_var("CUSP_DATA_DIR", std::env::temp_dir().join("cusp-bench-test"));
        let a = standard_inputs(Scale::Small);
        let b = standard_inputs(Scale::Small);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.graph, y.graph, "{} not stable across cache reload", x.name);
        }
    }

    /// Threads racing to cache one fresh name all read back the one graph:
    /// the readers open the file the moment its name appears, and still
    /// never see it half written.
    #[test]
    fn racing_readers_never_see_half_a_cached_graph() {
        let dir = std::env::temp_dir().join(format!("cusp-bench-race-{}", std::process::id()));
        let path = dir.join(format!("race-{:?}-v{GEN_VERSION}.bgr", Scale::Small));
        let graph = || kronecker(KroneckerConfig::graph500(15, 16, 0xACE));
        let want = graph();
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|i| {
                    let (dir, path) = (&dir, &path);
                    s.spawn(move || {
                        while i > 0 && !path.exists() {
                            std::thread::yield_now();
                        }
                        cached_in(dir, "race", Scale::Small, graph)
                    })
                })
                .collect();
            for racer in racers {
                let input = racer.join().expect("no racer panics");
                assert!(*input.graph == want, "a racer read another graph");
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn densities_match_table_three_shape() {
        std::env::set_var("CUSP_DATA_DIR", std::env::temp_dir().join("cusp-bench-test2"));
        let inputs = standard_inputs(Scale::Small);
        let density =
            |i: &Input| i.graph.num_edges() as f64 / i.graph.num_nodes().max(1) as f64;
        let by_name = |n: &str| inputs.iter().find(|i| i.name == n).unwrap();
        assert!((density(by_name("kron")) - 16.0).abs() < 1.0);
        assert!((density(by_name("gshx")) - 34.0).abs() < 9.0);
        assert!((density(by_name("cwx")) - 43.0).abs() < 11.0);
        assert!((density(by_name("ukx")) - 60.0).abs() < 15.0);
        // Ordering matches the paper: kron < gshx < cwx < ukx.
        assert!(density(by_name("kron")) < density(by_name("gshx")));
        assert!(density(by_name("gshx")) < density(by_name("cwx")));
        assert!(density(by_name("cwx")) < density(by_name("ukx")));
    }
}
