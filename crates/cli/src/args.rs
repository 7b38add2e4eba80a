//! Minimal argument parser (no external dependencies).
//!
//! Supports `--flag`, `--key value` and positional arguments; unknown keys
//! are errors. Deliberately tiny — the CLI has twelve subcommands with a
//! handful of options each.

use std::collections::BTreeMap;

/// Parsed arguments: options by key, flags, and positionals in order.
#[derive(Debug, Default, Clone)]
pub struct Args {
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

/// Parse error with the offending token.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "argument error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw tokens. `known_flags` take no value; every other
    /// `--key` consumes the next token as its value.
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        known_flags: &[&str],
    ) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("bare '--' is not supported".into()));
                }
                if known_flags.contains(&key) {
                    out.flags.push(key.to_string());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError(format!("--{key} requires a value")))?;
                    if out.opts.insert(key.to_string(), value).is_some() {
                        return Err(ArgError(format!("--{key} given twice")));
                    }
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(|s| s.as_str())
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("--{key} is required")))
    }

    /// Typed option with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| ArgError(format!("--{key} {v}: {e}"))),
        }
    }

    /// A count option (`--threads`, `--shards`) with default: 0 is refused
    /// here, with one message for every subcommand.
    pub fn get_count(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get_parsed(key, default)? {
            0 => Err(ArgError(format!("--{key} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// Whether a flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Errors if any option key outside `allowed` was provided.
    pub fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.opts.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_mixed() {
        let a = Args::parse(
            toks("embed --edges e.txt --undirected -k ignored --dim 64"),
            &["undirected"],
        )
        .unwrap();
        assert_eq!(
            a.positional(),
            &["embed".to_string(), "-k".into(), "ignored".into()]
        );
        assert_eq!(a.get("edges"), Some("e.txt"));
        assert!(a.flag("undirected"));
        assert_eq!(a.get_parsed::<usize>("dim", 0).unwrap(), 64);
    }

    #[test]
    fn missing_value_is_error() {
        let err = Args::parse(toks("--edges"), &[]).unwrap_err();
        assert!(err.0.contains("requires a value"));
    }

    #[test]
    fn duplicate_key_is_error() {
        let err = Args::parse(toks("--k 1 --k 2"), &[]).unwrap_err();
        assert!(err.0.contains("twice"));
    }

    #[test]
    fn typed_defaults_and_errors() {
        let a = Args::parse(toks("--alpha 0.5"), &[]).unwrap();
        assert_eq!(a.get_parsed("alpha", 0.1).unwrap(), 0.5);
        assert_eq!(a.get_parsed("missing", 7usize).unwrap(), 7);
        let b = Args::parse(toks("--alpha abc"), &[]).unwrap();
        assert!(b.get_parsed::<f64>("alpha", 0.0).is_err());
    }

    #[test]
    fn unknown_rejected() {
        let a = Args::parse(toks("--good 1 --bad 2"), &[]).unwrap();
        assert!(a.reject_unknown(&["good"]).is_err());
        assert!(a.reject_unknown(&["good", "bad"]).is_ok());
    }

    #[test]
    fn require_reports_key() {
        let a = Args::parse(toks(""), &[]).unwrap();
        let err = a.require("edges").unwrap_err();
        assert!(err.0.contains("--edges"));
    }
}
