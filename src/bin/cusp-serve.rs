//! `cusp-serve` — the long-running multi-tenant partition server.
//!
//! ```text
//! cusp-serve [--addr HOST:PORT] [--http-addr HOST:PORT] [--data-dir DIR]
//!            [--threads T]
//!            [--max-graphs N] [--max-bytes B] [--max-jobs J]
//!            [--max-connections C] [--read-timeout-secs S]
//! ```
//!
//! Binds the framed TCP protocol on `--addr` (default `127.0.0.1:7421`,
//! speak it with `cusp-part client ...`) and, when `--http-addr` is
//! given, the HTTP front end for curl. Both take the requests of one
//! table (`cusp_serve::VERBS`) and answer with the same JSON:
//!
//! ```text
//! curl http://127.0.0.1:7422/healthz
//! curl -X POST 'http://127.0.0.1:7422/v1/acme/graphs/g1/gen?kind=uniform&nodes=5000&degree=8'
//! curl -X POST 'http://127.0.0.1:7422/v1/acme/graphs/g1/partition?policy=hvc&hosts=4'
//! cusp-part client partition --tenant acme --name g1 --policy hvc --hosts 4   # the same body
//! ```
//!
//! The server runs until killed. Partition results are cached in memory
//! and under `--data-dir`, so a restarted server serves warm requests
//! from disk without re-partitioning.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

use cusp_repro::cli;
use cusp_serve::{serve, serve_http, Quota, ServeConfig, ServerState};

/// The synopsis: [`usage`] prints it and [`cli::parse_flags`] refuses a
/// flag it does not list.
const SYNOPSIS: &str = "  cusp-serve [--addr HOST:PORT] [--http-addr HOST:PORT] [--data-dir DIR]
             [--threads T]
             [--max-graphs N] [--max-bytes B] [--max-jobs J]
             [--max-connections C] [--read-timeout-secs S]";

fn usage() -> ! {
    eprintln!("usage:\n{SYNOPSIS}");
    exit(2)
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str, default: T) -> T {
    match flags.get(name) {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{name}: '{s}'");
            usage()
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let flags = match cli::parse_flags(Some(&cli::synopsis_flags(SYNOPSIS)), &args) {
        Ok((flags, positional)) if positional.is_empty() => flags,
        Ok((_, positional)) => {
            eprintln!("unexpected argument '{}'", positional[0]);
            usage()
        }
        Err(e) => {
            eprintln!("{e}");
            usage()
        }
    };

    let quota = Quota::default();
    let config = ServeConfig {
        data_dir: PathBuf::from(
            flags.get("data-dir").map(String::as_str).unwrap_or("cusp-serve-data"),
        ),
        default_quota: Quota {
            max_graphs: num(&flags, "max-graphs", quota.max_graphs),
            max_bytes: num(&flags, "max-bytes", quota.max_bytes),
            max_concurrent_jobs: num(&flags, "max-jobs", quota.max_concurrent_jobs),
        },
        threads_per_host: num(&flags, "threads", 1),
        read_timeout: Duration::from_secs(num(&flags, "read-timeout-secs", 30)),
        max_connections: num(&flags, "max-connections", 64),
        ..ServeConfig::default()
    };

    let addr = flags.get("addr").map(String::as_str).unwrap_or("127.0.0.1:7421").to_string();
    let data_dir = config.data_dir.display().to_string();
    let state = match ServerState::new(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cusp-serve: cannot initialise data dir '{data_dir}': {e}");
            exit(1);
        }
    };

    let tcp = match serve(state.clone(), &addr) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cusp-serve: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    println!("cusp-serve: framed protocol on {}", tcp.addr());
    println!("cusp-serve: data dir {data_dir}");

    let _http = match flags.get("http-addr") {
        None => None,
        Some(http_addr) => match serve_http(state, http_addr) {
            Ok(h) => {
                println!("cusp-serve: http on {}", h.addr());
                Some(h)
            }
            Err(e) => {
                eprintln!("cusp-serve: cannot bind http {http_addr}: {e}");
                exit(1);
            }
        },
    };

    // Serve until killed; the accept loops own all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
