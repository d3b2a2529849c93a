//! Minimal argument parsing for the `pet` binary (no external parser — the
//! workspace's dependency set stays at rand/proptest/criterion).
//!
//! Grammar: `pet <command> [--flag value]... [--switch]...`. A flag
//! followed by another flag, or by nothing, is bare: [`Args::switch`] reads
//! it as set, and every value reader refuses it, so a forgotten value is a
//! usage error instead of the string `"true"`.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: a command word plus flag map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional word).
    pub command: String,
    /// Flag name → value, `None` for a bare flag.
    flags: BTreeMap<String, Option<String>>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns an error when no command is given, a flag is malformed, or a
    /// value is missing.
    pub fn parse<I, S>(argv: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = argv.into_iter().map(Into::into).peekable();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing command".into()))?;
        if command.starts_with('-') {
            return Err(ArgError(format!(
                "expected a command, got flag {command:?}"
            )));
        }
        let mut flags = BTreeMap::new();
        while let Some(token) = it.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument {token:?}"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("empty flag name".into()));
            }
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next(),
                _ => None,
            };
            if flags.insert(name.to_string(), value).is_some() {
                return Err(ArgError(format!("duplicate flag --{name}")));
            }
        }
        Ok(Self { command, flags })
    }

    /// A string flag value (`None` when the flag is absent).
    ///
    /// # Errors
    ///
    /// Returns an error naming the flag when it is bare.
    pub fn get(&self, name: &str) -> Result<Option<&str>, ArgError> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(Some(value)) => Ok(Some(value.as_str())),
            Some(None) => Err(ArgError(format!("--{name} needs a value"))),
        }
    }

    /// A parsed numeric/boolean flag, defaulting when absent.
    ///
    /// # Errors
    ///
    /// Returns an error when the flag is bare or its value does not parse
    /// as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name)? {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// A required flag.
    ///
    /// # Errors
    ///
    /// Returns an error when the flag is absent, bare, or does not parse.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let raw = self
            .get(name)?
            .ok_or_else(|| ArgError(format!("missing required flag --{name}")))?;
        raw.parse()
            .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}")))
    }

    /// Whether a boolean switch is set: bare, or given `true`, `1` or `yes`.
    #[must_use]
    pub fn switch(&self, name: &str) -> bool {
        match self.flags.get(name) {
            None => false,
            Some(None) => true,
            Some(Some(value)) => matches!(value.as_str(), "true" | "1" | "yes"),
        }
    }

    /// Rejects flags outside the allowed set (typo protection).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown flag.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for name in self.flags.keys() {
            if !allowed.contains(&name.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{name} for command {:?} (allowed: {})",
                    self.command,
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().copied())
    }

    #[test]
    fn command_and_flags() {
        let a = parse(&[
            "estimate",
            "--tags",
            "5000",
            "--epsilon",
            "0.1",
            "--adaptive",
        ])
        .unwrap();
        assert_eq!(a.command, "estimate");
        assert_eq!(a.require::<u64>("tags").unwrap(), 5000);
        assert_eq!(a.get_or("epsilon", 0.05).unwrap(), 0.1);
        assert!(a.switch("adaptive"));
        assert!(!a.switch("linear"));
        assert_eq!(a.get_or("delta", 0.01).unwrap(), 0.01);
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(parse(&[]).unwrap_err().0.contains("missing command"));
        assert!(parse(&["--tags"])
            .unwrap_err()
            .0
            .contains("expected a command"));
        assert!(parse(&["run", "loose"])
            .unwrap_err()
            .0
            .contains("positional"));
        assert!(parse(&["run", "--x", "1", "--x", "2"])
            .unwrap_err()
            .0
            .contains("duplicate"));
        let a = parse(&["run", "--tags", "many"]).unwrap();
        assert!(a
            .require::<u64>("tags")
            .unwrap_err()
            .0
            .contains("cannot parse"));
        assert!(a
            .require::<f64>("absent")
            .unwrap_err()
            .0
            .contains("missing required"));
    }

    #[test]
    fn switch_values() {
        let a = parse(&["run", "--flag", "--next", "7"]).unwrap();
        assert!(a.switch("flag"));
        assert_eq!(a.require::<u32>("next").unwrap(), 7);
    }

    /// A bare flag is a switch; reading it as a value names the flag
    /// instead of yielding the string "true".
    #[test]
    fn bare_flags_are_not_values() {
        let a = parse(&["run", "--out", "--verbose"]).unwrap();
        for err in [
            a.get("out").unwrap_err(),
            a.get_or("out", String::new()).unwrap_err(),
            a.require::<String>("verbose").unwrap_err(),
        ] {
            assert!(err.0.contains("needs a value"), "{err}");
        }
        assert_eq!(a.get("out").unwrap_err().0, "--out needs a value");
        assert!(a.switch("out") && a.switch("verbose"));
        assert_eq!(a.get("absent").unwrap(), None);
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = parse(&["run", "--good", "1", "--bad", "2"]).unwrap();
        assert!(a.expect_only(&["good"]).is_err());
        assert!(a.expect_only(&["good", "bad"]).is_ok());
    }

    #[test]
    fn negative_numbers_parse_as_values() {
        let a = parse(&["run", "--shift", "-3"]).unwrap();
        assert_eq!(a.require::<i32>("shift").unwrap(), -3);
    }
}
