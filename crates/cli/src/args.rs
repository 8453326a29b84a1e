//! Minimal flag parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command line: positional subcommand plus `--key value` /
/// `--switch` flags. Remembers every name a command looked up, so what
/// the command never asked about can be refused
/// ([`Args::reject_unasked`]) instead of silently ignored.
#[derive(Debug, Clone, Default)]
pub(crate) struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
    asked: RefCell<HashSet<String>>,
}

/// Known boolean switches (present/absent, no value).
const SWITCHES: &[&str] = &["fast-math", "csv", "stats", "dry-run"];

impl Args {
    /// Parses everything after the subcommand.
    pub(crate) fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            let name = token
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{token}`"))?;
            if SWITCHES.contains(&name) {
                args.switches.push(name.to_string());
                i += 1;
            } else {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                args.flags.insert(name.to_string(), value.clone());
                i += 2;
            }
        }
        Ok(args)
    }

    /// A required string flag.
    pub(crate) fn required(&self, name: &str) -> Result<&str, String> {
        self.optional(name).ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string flag. Every other value accessor reads
    /// through this one, which is what records `name` as asked for.
    pub(crate) fn optional(&self, name: &str) -> Option<&str> {
        self.asked.borrow_mut().insert(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// An optional numeric flag with a default.
    pub(crate) fn num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.optional(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: `{v}`")),
        }
    }

    /// A boolean switch.
    pub(crate) fn switch(&self, name: &str) -> bool {
        self.asked.borrow_mut().insert(name.to_string());
        self.switches.iter().any(|s| s == name)
    }

    /// Comma-separated u64 list flag with default.
    pub(crate) fn u64_list_or(&self, name: &str, default: &[u64]) -> Result<Vec<u64>, String> {
        match self.optional(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| s.trim().parse().map_err(|_| format!("bad --{name} item `{s}`")))
                .collect(),
        }
    }

    /// Refuses the command line if it carries a flag or switch that
    /// `command` has not looked up by now — a misspelt `--budgte` must
    /// fail, not run with the default budget. Call it once every flag
    /// has been read and before the command starts its work.
    pub(crate) fn reject_unasked(&self, command: &str) -> Result<(), String> {
        let asked = self.asked.borrow();
        // The alphabetically first, so the message does not depend on
        // the map's iteration order.
        let unasked = self.flags.keys().chain(&self.switches).filter(|name| !asked.contains(*name));
        match unasked.min() {
            None => Ok(()),
            Some(name) => Err(format!("unrecognised flag --{name} for `{command}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_switches() {
        let a = Args::parse(&sv(&["--kernel", "atax", "--n", "256", "--fast-math"])).unwrap();
        assert_eq!(a.required("kernel").unwrap(), "atax");
        assert_eq!(a.num_or::<u64>("n", 0).unwrap(), 256);
        assert!(a.switch("fast-math"));
        assert!(!a.switch("csv"));
        assert_eq!(a.optional("gpu"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Args::parse(&sv(&["kernel"])).is_err());
        assert!(Args::parse(&sv(&["--kernel"])).is_err());
        let a = Args::parse(&sv(&["--n", "abc"])).unwrap();
        assert!(a.num_or::<u64>("n", 0).is_err());
    }

    #[test]
    fn lists_parse() {
        let a = Args::parse(&sv(&["--sizes", "32, 64,128"])).unwrap();
        assert_eq!(a.u64_list_or("sizes", &[]).unwrap(), vec![32, 64, 128]);
        let b = Args::parse(&sv(&[])).unwrap();
        assert_eq!(b.u64_list_or("sizes", &[8, 16]).unwrap(), vec![8, 16]);
    }

    #[test]
    fn a_flag_nobody_asked_about_is_refused_by_name() {
        let a = Args::parse(&sv(&["--budgte", "8", "--kernel", "atax", "--csv"])).unwrap();
        a.required("kernel").unwrap();
        assert!(a.reject_unasked("tune").unwrap_err().contains("--budgte"));
        let _ = a.num_or::<u64>("budgte", 0);
        assert!(a.reject_unasked("tune").unwrap_err().contains("--csv"));
        assert!(!a.switch("stats") && a.switch("csv"));
        assert_eq!(a.reject_unasked("tune"), Ok(()));
    }

    #[test]
    fn missing_required_flag_reports_name() {
        let a = Args::parse(&sv(&[])).unwrap();
        let err = a.required("gpu").unwrap_err();
        assert!(err.contains("--gpu"));
    }
}
