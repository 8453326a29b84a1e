//! Which daemons a [`RemoteEvaluator`](crate::RemoteEvaluator) asks,
//! and which of them is a scope's deterministic home.

use crate::protocol::EvalScope;
use oriole_tuner::persist;
use std::collections::HashSet;

/// The fleet's membership — an ordered, duplicate-free list of daemon
/// addresses. Shard indices are positions in this list, so two clients
/// holding the same spec agree on every partitioning decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    shards: Vec<String>,
}

impl FleetSpec {
    /// Parses the CLI `--remote` argument: one address, a
    /// comma-separated address list (`127.0.0.1:7733,127.0.0.1:7734`)
    /// or `@path` naming a manifest file with one address per line
    /// (blank lines and `#`-comments ignored).
    pub fn parse(arg: &str) -> Result<FleetSpec, String> {
        if let Some(path) = arg.strip_prefix('@') {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fleet manifest `{path}`: {e}"))?;
            let addrs: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect();
            FleetSpec::from_addrs(addrs)
        } else {
            FleetSpec::from_addrs(arg.split(',').map(|s| s.trim().to_string()).collect())
        }
    }

    /// Builds a spec from an explicit address list. Rejects an empty
    /// fleet, empty entries, and duplicates (a daemon listed twice
    /// would silently double its share of every queue).
    pub fn from_addrs(addrs: Vec<String>) -> Result<FleetSpec, String> {
        if addrs.is_empty() {
            return Err("fleet spec names no shards".to_string());
        }
        let mut seen = HashSet::new();
        for a in &addrs {
            if a.is_empty() {
                return Err("fleet spec contains an empty shard address".to_string());
            }
            if !seen.insert(a.as_str()) {
                return Err(format!("fleet spec lists shard `{a}` twice"));
            }
        }
        Ok(FleetSpec { shards: addrs })
    }

    /// The shard addresses, in shard-index order.
    pub fn shards(&self) -> &[String] {
        &self.shards
    }

    /// Number of shards in the fleet.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet is empty (never true for a parsed spec).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The scope partitioner: a scope's deterministic home shard, by
    /// FNV checksum of the same canonical scope text `persist` embeds
    /// in tier files. Stable across processes and runs, so every
    /// client agrees where a scope's chunks first enqueue — and in the
    /// steady state a scope's warm measurement tier accumulates on one
    /// shard's store, preserving the single-writer-per-scope
    /// discipline fleet-wide. (Stolen or rebalanced chunks land in
    /// *other* daemons' stores — each daemon still only ever writes
    /// its own directory, and dedup makes replays bit-identical.)
    pub fn home_shard(&self, scope: &EvalScope) -> usize {
        let text =
            persist::scope_text(&scope.kernel, &scope.gpu, &scope.sizes, &scope.protocol);
        (persist::checksum(text.as_bytes()) % self.shards.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oriole_arch::Gpu;
    use oriole_tuner::EvalProtocol;

    fn scope(kernel: &str, sizes: &[u64]) -> EvalScope {
        EvalScope {
            kernel: kernel.to_string(),
            gpu: Gpu::K20.spec().clone(),
            sizes: sizes.to_vec(),
            protocol: EvalProtocol::default(),
        }
    }

    #[test]
    fn parses_comma_lists_and_rejects_bad_specs() {
        let spec = FleetSpec::parse("127.0.0.1:1, 127.0.0.1:2 ,127.0.0.1:3").expect("parse");
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.shards()[1], "127.0.0.1:2");

        assert!(FleetSpec::parse("").is_err(), "empty entry");
        assert!(FleetSpec::parse("a,,b").is_err(), "empty middle entry");
        assert!(FleetSpec::parse("a,b,a").is_err(), "duplicate shard");
        assert!(FleetSpec::from_addrs(Vec::new()).is_err(), "empty fleet");
    }

    #[test]
    fn parses_manifest_files_with_comments() {
        let dir = std::env::temp_dir().join(format!("oriole-fleet-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fleet.txt");
        std::fs::write(&path, "# the fleet\n127.0.0.1:7733\n\n  127.0.0.1:7734\n").expect("write");
        let spec = FleetSpec::parse(&format!("@{}", path.display())).expect("parse manifest");
        assert_eq!(spec.shards(), ["127.0.0.1:7733", "127.0.0.1:7734"]);
        assert!(FleetSpec::parse("@/no/such/manifest").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What every refusal names: one of these causes.
    const CAUSES: [&str; 4] =
        ["names no shards", "empty shard address", "twice", "cannot read fleet manifest"];

    /// Checks that `outcome` is a spec of nonempty, unpadded, distinct
    /// shards, or a refusal naming its cause; `true` if accepted.
    fn check_outcome(input: &str, outcome: Result<FleetSpec, String>) -> bool {
        match outcome {
            Ok(spec) => {
                let shards = spec.shards();
                assert!(!shards.is_empty(), "{input:?} accepted with no shards");
                for (i, a) in shards.iter().enumerate() {
                    assert!(!a.is_empty() && a.trim() == a, "{input:?} kept shard {a:?}");
                    assert!(!shards[..i].contains(a), "{input:?} kept shard {a:?} twice");
                }
                true
            }
            Err(why) => {
                assert!(CAUSES.iter().any(|c| why.contains(c)), "{input:?} refused as {why:?}");
                false
            }
        }
    }

    #[test]
    fn mutated_comma_lists_are_accepted_clean_or_refused_with_a_cause() {
        const PIECES: [&str; 10] =
            ["127.0.0.1:7733", "127.0.0.1:7734", "h:1", "", " ", "\t", ",", "#", "@", "\u{2003}"];
        let mut accepted = [0u32; 2];
        oriole_ir::testgen::check("fleet_spec_mutations", 512, |rng| {
            let mut arg: String = (0..rng.range_usize(1, 4))
                .map(|_| rng.pick(&PIECES[..3]))
                .collect::<Vec<_>>()
                .join(",");
            for _ in 0..rng.range_usize(0, 5) {
                let bounds: Vec<usize> =
                    arg.char_indices().map(|(i, _)| i).chain([arg.len()]).collect();
                let at = rng.pick(&bounds);
                if rng.coin() || at == arg.len() {
                    arg.insert_str(at, rng.pick(&PIECES));
                } else {
                    arg.remove(at);
                }
            }
            accepted[usize::from(check_outcome(&arg, FleetSpec::parse(&arg)))] += 1;
        });
        assert!(accepted.iter().all(|&n| n > 0), "refused / accepted: {accepted:?}");
    }

    #[test]
    fn a_manifest_with_comments_blank_lines_and_padding_parses_clean() {
        let dir = std::env::temp_dir().join(format!("oriole-fleet-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("fleet.txt");
        let text = "# the fleet\n\n  127.0.0.1:7733\t\n#127.0.0.1:7735\n\n127.0.0.1:7734\n \n#\n";
        std::fs::write(&path, text).expect("write");
        let arg = format!("@{}", path.display());
        assert!(check_outcome(text, FleetSpec::parse(&arg)), "the manifest is refused");
        let spec = FleetSpec::parse(&arg).expect("parse");
        assert_eq!(spec.shards(), ["127.0.0.1:7733", "127.0.0.1:7734"]);
        std::fs::write(&path, "# nothing\n\n").expect("write");
        let why = FleetSpec::parse(&arg).expect_err("no shards");
        assert!(why.contains("names no shards"), "{why}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn home_shard_is_deterministic_in_range_and_scope_sensitive() {
        let spec = FleetSpec::parse("a,b,c,d").expect("parse");
        let s1 = scope("atax", &[64]);
        let h1 = spec.home_shard(&s1);
        assert!(h1 < spec.len());
        assert_eq!(h1, spec.home_shard(&s1), "same scope, same home");
        // Different scopes spread: across a handful of kernels/sizes at
        // least two distinct homes must appear (FNV over distinct texts).
        let homes: HashSet<usize> = ["atax", "bicg", "mvt", "gesummv"]
            .iter()
            .flat_map(|k| [32u64, 64, 128].iter().map(|n| spec.home_shard(&scope(k, &[*n]))))
            .collect();
        assert!(homes.len() > 1, "partitioner collapsed every scope onto one shard");
    }
}
