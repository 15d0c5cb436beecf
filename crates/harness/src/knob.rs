//! Numeric knobs: `SEMLOC_*` environment variables and CLI budget
//! arguments.
//!
//! Every numeric knob goes through [`parse_knob`], which rejects malformed
//! or out-of-range input with a typed [`KnobError`] naming the knob and
//! the bad value. A typo such as `SEMLOC_BUDGET=100k` therefore stops the
//! run (callers panic or exit 1 with the error) instead of quietly running
//! the default.

use std::env::VarError;
use std::fmt;
use std::ops::RangeInclusive;

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
/// assert_eq!(parse_knob("budget", "400000", 0..=u64::MAX), Ok(400_000));
/// let e = parse_knob("SEMLOC_BUDGET", "100k", 0..=u64::MAX).unwrap_err();
/// assert_eq!(e.to_string(), "SEMLOC_BUDGET must be an integer >= 0, got \"100k\"");
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

/// Read environment knob `name` through [`parse_knob`]: `Ok(None)` when it
/// is unset or empty, its value when it parses.
///
/// # Errors
///
/// A [`KnobError`] when the variable is set to anything else.
pub fn env_knob(name: &str, range: RangeInclusive<u64>) -> Result<Option<u64>, KnobError> {
    match std::env::var(name) {
        Ok(v) if v.trim().is_empty() => Ok(None),
        Ok(v) => parse_knob(name, &v, range).map(Some),
        Err(VarError::NotPresent) => Ok(None),
        Err(VarError::NotUnicode(v)) => Err(KnobError {
            name: name.to_string(),
            value: v.to_string_lossy().into_owned(),
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
        let e = parse_knob("SEMLOC_MC_QUANTUM", "0", 1..=u64::MAX).unwrap_err();
        assert_eq!(
            e.to_string(),
            "SEMLOC_MC_QUANTUM must be an integer >= 1, got \"0\""
        );
        let e = parse_knob("SEMLOC_MC_DRAM_CHANNELS", "5000000000", 1..=4_294_967_295).unwrap_err();
        assert_eq!(
            e.to_string(),
            "SEMLOC_MC_DRAM_CHANNELS must be an integer in 1..=4294967295, got \"5000000000\""
        );
    }

    #[test]
    fn env_knobs_read_unset_empty_good_and_bad_values() {
        // A name nothing else reads, so setting it cannot disturb other tests.
        const VAR: &str = "KNOB_TEST_ENV_4F2A";
        std::env::remove_var(VAR);
        assert_eq!(env_knob(VAR, 0..=u64::MAX), Ok(None));
        std::env::set_var(VAR, " ");
        assert_eq!(env_knob(VAR, 0..=u64::MAX), Ok(None));
        std::env::set_var(VAR, "60000");
        assert_eq!(env_knob(VAR, 0..=u64::MAX), Ok(Some(60_000)));
        std::env::set_var(VAR, "100k");
        let e = env_knob(VAR, 0..=u64::MAX).unwrap_err();
        assert_eq!((e.name.as_str(), e.value.as_str()), (VAR, "100k"));
        std::env::remove_var(VAR);
    }
}
