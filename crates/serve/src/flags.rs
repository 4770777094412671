//! Command-line flags, one parser for `dgsq`, `dgsd` and `dgsload`:
//! `--key value` pairs checked against the command's allowlist, so a
//! misspelled flag is refused by name — with the nearest allowed
//! spelling when one is close — and never silently ignored.

use std::collections::HashMap;
use std::str::FromStr;

/// `--key value` pairs, keys without the dashes.
pub type Flags = HashMap<String, String>;

/// Parses `args` as `--key value` pairs. A key in `switches` takes no
/// value and reads `"true"`. A key outside `allowed` is an error naming
/// it, the nearest allowed spelling when one is close, and the
/// allowlist.
pub fn parse(args: &[String], allowed: &[&str], switches: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key =
            (arg.strip_prefix("--")).ok_or_else(|| format!("expected a --flag, got '{arg}'"))?;
        if !allowed.contains(&key) {
            let hint = (allowed.iter())
                .filter(|a| edit_distance(key, a) <= 2)
                .min_by_key(|a| edit_distance(key, a))
                .map(|a| format!(" (did you mean --{a}?)"))
                .unwrap_or_default();
            let allowed: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
            let allowed = allowed.join(" ");
            return Err(format!("unknown flag --{key}{hint}; allowed: {allowed}"));
        }
        let value = if switches.contains(&key) {
            "true"
        } else {
            args.next()
                .ok_or_else(|| format!("--{key} requires a value"))?
        };
        flags.insert(key.to_owned(), value.to_owned());
    }
    Ok(flags)
}

/// The value of `--key` parsed as `T`; `default` when the flag is
/// absent.
pub fn num<T: FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
    }
}

/// Plain Levenshtein distance, small inputs only (flag names).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn switches_take_no_value_and_misspellings_get_a_hint() {
        let allowed = ["graph", "sites", "boolean"];
        let flags = parse(
            &args(&["--boolean", "--sites", "4"]),
            &allowed,
            &["boolean"],
        )
        .unwrap();
        assert_eq!(
            (flags["boolean"].as_str(), flags["sites"].as_str()),
            ("true", "4")
        );
        assert_eq!(num(&flags, "sites", 1u16), Ok(4));
        assert_eq!(num(&flags, "graph", 7u16), Ok(7));
        assert!(num::<u16>(&flags, "boolean", 0)
            .unwrap_err()
            .contains("cannot parse"));
        let err = parse(&args(&["--site", "4"]), &allowed, &[]).unwrap_err();
        assert!(
            err.contains("unknown flag --site (did you mean --sites?)"),
            "{err}"
        );
        assert!(err.ends_with("allowed: --graph --sites --boolean"), "{err}");
    }
}
