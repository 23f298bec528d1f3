//! Flag parsing for `cusp-part` and `cusp-serve`, read out of each
//! binary's usage synopsis: one text decides which flags a command takes
//! and which of them take a value.

use std::collections::HashMap;

/// The flags `synopsis` lists, each with whether it takes a value. A flag
/// followed by a metavariable takes one (`--hosts K`); a flag a bracket
/// closes on, or that another flag follows, is a switch (`[--csc]`).
pub fn synopsis_flags(synopsis: &str) -> Vec<(&str, bool)> {
    let words: Vec<&str> = synopsis.split_whitespace().map(|w| w.trim_start_matches(['[', '('])).collect();
    let mut flags = Vec::new();
    for (i, word) in words.iter().enumerate() {
        let Some(flag) = word.strip_prefix("--") else { continue };
        let name = flag.trim_end_matches([']', ')']);
        let next = words.get(i + 1);
        flags.push((name, name == flag && next.is_some_and(|w| !w.starts_with("--") && *w != "|")));
    }
    flags
}

/// Parses `--flag value` and `--switch` arguments (a switch maps to
/// `"true"`), collecting positionals apart. With `known`, a flag it does
/// not list is an error naming the flag; without, every flag takes a value.
pub fn parse_flags(
    known: Option<&[(&str, bool)]>,
    args: &[String],
) -> Result<(HashMap<String, String>, Vec<String>), String> {
    let mut flags = HashMap::new();
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        let takes_value = match known {
            None => true,
            Some(known) => match known.iter().find(|(flag, _)| *flag == name) {
                Some(&(_, takes_value)) => takes_value,
                None => return Err(format!("unknown flag --{name}")),
            },
        };
        let value = match takes_value {
            false => "true".to_string(),
            true => args.next().ok_or_else(|| format!("flag --{name} is missing its value"))?.clone(),
        };
        flags.insert(name.to_string(), value);
    }
    Ok((flags, positional))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flag_takes_a_value_when_a_metavariable_follows_it() {
        let flags = synopsis_flags(
            "  tool run --graph G.bgr [--csc] [--kill-seed S [--kill-repeat]]
                  (--batch B.txt | --events N [--seed S]) [--policy NAME --hosts K] [--rejoin] --last",
        );
        let want = [
            ("graph", true),
            ("csc", false),
            ("kill-seed", true),
            ("kill-repeat", false),
            ("batch", true),
            ("events", true),
            ("seed", true),
            ("policy", true),
            ("hosts", true),
            ("rejoin", false),
            ("last", false),
        ];
        assert_eq!(flags, want);
    }

    #[test]
    fn parsing_follows_the_synopsis() {
        let known = synopsis_flags("  tool [--csc] --hosts K");
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (flags, positional) = parse_flags(Some(&known), &args(&["--csc", "x", "--hosts", "4"])).unwrap();
        assert_eq!(flags["csc"], "true");
        assert_eq!(flags["hosts"], "4");
        assert_eq!(positional, ["x"]);
        assert_eq!(parse_flags(Some(&known), &args(&["--det", "4"])).unwrap_err(), "unknown flag --det");
        assert_eq!(parse_flags(Some(&known), &args(&["--hosts"])).unwrap_err(), "flag --hosts is missing its value");
        let (flags, _) = parse_flags(None, &args(&["--any", "v"])).unwrap();
        assert_eq!(flags["any"], "v");
    }
}
