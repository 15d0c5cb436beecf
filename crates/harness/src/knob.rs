//! Knobs: the environment variables the workspace reads, and the parser
//! numeric knobs and CLI budget arguments share.
//!
//! `Knob` lists every environment variable, and this module holds the
//! workspace's one environment read (clippy's `disallowed-methods` rejects
//! `std::env::var` and friends anywhere else). Each knob has exactly one
//! typed reader: `SimConfig::default`, `pool_threads`, `diff_dump_dir`,
//! and `TraceStore::from_env` for the two store directories.
//! `Knob` is crate-private, so a variant nothing reads is a dead-code
//! error, and a test holds README's knob table to the enum.
//!
//! Every numeric knob goes through [`parse_knob`], which rejects malformed
//! or out-of-range input with a typed [`KnobError`] naming the knob and
//! the bad value. A typo such as `SEMLOC_BUDGET=100k` therefore stops the
//! run (callers panic or exit with the error) instead of quietly running
//! the default. An empty variable counts as unset.

use std::ffi::OsString;
use std::fmt;
use std::ops::RangeInclusive;

/// Declares [`Knob`] with its names, and (for the README test) the list of
/// every variant, from one table.
macro_rules! knobs {
    ($($(#[doc = $about:literal])+ $variant:ident = $name:literal,)+) => {
        /// An environment variable the workspace reads.
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum Knob {
            $($(#[doc = $about])+ $variant,)+
        }

        impl Knob {
            #[cfg(test)]
            const ALL: &[Knob] = &[$(Knob::$variant),+];

            /// The variable's name.
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $(Knob::$variant => $name,)+
                }
            }
        }
    };
}

knobs! {
    /// Dynamic-instruction budget per experiment run (default 400 000).
    Budget = "SEMLOC_BUDGET",
    /// Directory for finished cells' results; unset keeps them in memory.
    CkptDir = "SEMLOC_CKPT_DIR",
    /// Shard-pool worker threads (default host parallelism).
    PoolThreads = "SEMLOC_POOL_THREADS",
    /// On-disk trace cache directory; unset keeps traces in memory.
    TraceDir = "SEMLOC_TRACE_DIR",
    /// `semloc-diff`: where divergence dumps go (default `diff-dumps`).
    DiffDumpDir = "DIFF_DUMP_DIR",
}

impl Knob {
    /// The variable's value; `None` when it is unset or empty.
    pub(crate) fn os(self) -> Option<OsString> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the workspace's one environment read; every variable is a Knob"
        )]
        let value = std::env::var_os(self.name());
        value.filter(|v| !v.is_empty())
    }

    /// A numeric knob: `Ok(None)` when unset or blank, its value when it
    /// parses in `range`.
    ///
    /// # Errors
    ///
    /// A [`KnobError`] when the variable is set to anything else.
    pub(crate) fn int(self, range: RangeInclusive<u64>) -> Result<Option<u64>, KnobError> {
        parse_env(self.name(), self.os(), range)
    }
}

/// A numeric knob set to something that is not an integer in its range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobError {
    /// The knob: an environment variable or an argument name.
    pub name: String,
    /// The rejected value, as given.
    pub value: String,
    /// The values the knob accepts.
    pub range: RangeInclusive<u64>,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (lo, hi) = (*self.range.start(), *self.range.end());
        write!(f, "{} must be an integer ", self.name)?;
        if hi == u64::MAX {
            write!(f, ">= {lo}")?;
        } else {
            write!(f, "in {lo}..={hi}")?;
        }
        write!(f, ", got {:?}", self.value)
    }
}

impl std::error::Error for KnobError {}

/// Parse `value` as knob `name`: a decimal integer in `range`, surrounding
/// whitespace ignored.
///
/// # Errors
///
/// A [`KnobError`] when `value` is not a decimal integer or lies outside
/// `range`.
///
/// ```rust
/// use semloc_harness::parse_knob;
///
/// assert_eq!(parse_knob("budget", "400000", 1..=u64::MAX), Ok(400_000));
/// let e = parse_knob("SEMLOC_BUDGET", "100k", 1..=u64::MAX).unwrap_err();
/// assert_eq!(e.to_string(), "SEMLOC_BUDGET must be an integer >= 1, got \"100k\"");
/// ```
pub fn parse_knob(name: &str, value: &str, range: RangeInclusive<u64>) -> Result<u64, KnobError> {
    match value.trim().parse::<u64>() {
        Ok(v) if range.contains(&v) => Ok(v),
        _ => Err(KnobError {
            name: name.to_string(),
            value: value.to_string(),
            range,
        }),
    }
}

/// [`parse_knob`] over an environment value: `Ok(None)` when unset or
/// blank.
fn parse_env(
    name: &str,
    value: Option<OsString>,
    range: RangeInclusive<u64>,
) -> Result<Option<u64>, KnobError> {
    let Some(value) = value else {
        return Ok(None);
    };
    match value.to_str() {
        Some(v) if v.trim().is_empty() => Ok(None),
        Some(v) => parse_knob(name, v, range).map(Some),
        None => Err(KnobError {
            name: name.to_string(),
            value: value.to_string_lossy().into_owned(),
            range,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_integers_in_range() {
        assert_eq!(parse_knob("k", "0", 0..=u64::MAX), Ok(0));
        assert_eq!(parse_knob("k", " 120000\n", 1..=u64::MAX), Ok(120_000));
        assert_eq!(parse_knob("k", "7", 1..=7), Ok(7));
    }

    #[test]
    fn rejects_garbage_and_out_of_range_values() {
        for bad in [
            "100k",
            "banana",
            "-1",
            "1.5",
            "",
            "0x10",
            "99999999999999999999",
        ] {
            let e = parse_knob("SEMLOC_BUDGET", bad, 0..=u64::MAX).unwrap_err();
            assert_eq!(e.name, "SEMLOC_BUDGET");
            assert_eq!(e.value, bad);
        }
        let e = parse_knob("SEMLOC_BUDGET", "-1", 0..=u64::MAX).unwrap_err();
        assert_eq!(
            e.to_string(),
            "SEMLOC_BUDGET must be an integer >= 0, got \"-1\""
        );
        let e = parse_knob("SEMLOC_POOL_THREADS", "0", 1..=4_294_967_295).unwrap_err();
        assert_eq!(
            e.to_string(),
            "SEMLOC_POOL_THREADS must be an integer in 1..=4294967295, got \"0\""
        );
        let e = parse_knob("SEMLOC_POOL_THREADS", "5000000000", 1..=4_294_967_295).unwrap_err();
        assert_eq!(
            e.to_string(),
            "SEMLOC_POOL_THREADS must be an integer in 1..=4294967295, got \"5000000000\""
        );
    }

    #[test]
    fn env_values_read_unset_blank_good_and_bad() {
        let parse = |v: Option<&str>| parse_env("K", v.map(OsString::from), 0..=u64::MAX);
        assert_eq!(parse(None), Ok(None));
        assert_eq!(parse(Some(" ")), Ok(None));
        assert_eq!(parse(Some("60000")), Ok(Some(60_000)));
        let e = parse(Some("100k")).unwrap_err();
        assert_eq!((e.name.as_str(), e.value.as_str()), ("K", "100k"));
    }

    /// README's knob table lists exactly the variables [`Knob`] declares.
    #[test]
    fn readme_documents_every_knob() {
        let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme).expect("README.md beside the workspace");
        let table = readme
            .split("\n## Environment knobs\n")
            .nth(1)
            .expect("README has an `## Environment knobs` section");
        let table = table.split("\n## ").next().unwrap_or(table);
        let mut listed: Vec<&str> = table
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
            .collect();
        let mut declared: Vec<&str> = Knob::ALL.iter().map(|k| k.name()).collect();
        listed.sort_unstable();
        declared.sort_unstable();
        assert_eq!(listed, declared, "README's knob table vs the Knob enum");
    }
}
