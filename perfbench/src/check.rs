//! Output checks: the reply validator and the order-independent reply
//! digest.
//!
//! The validator reads the fixed reply layout the service writes (`id`
//! first, then `ok`, then `verb`) with a few string searches rather than
//! the program's own JSON parser, so a parser change cannot hide a wrong
//! reply from the benchmark.

use pet_server::service::Dispatch;
use pet_server::{ServerConfig, ServiceCore};
use std::time::Instant;

/// FNV-1a over the bytes of one reply.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The raw text of `key`'s value in a one-line JSON object whose values are
/// numbers, booleans, `null` or strings without escapes (quotes stripped).
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    if let Some(string) = rest.strip_prefix('"') {
        return string.find('"').map(|end| &string[..end]);
    }
    rest.find([',', '}']).map(|end| &rest[..end])
}

fn number<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("reply lacks a numeric {key:?}: {line}"))
}

/// One estimate read from the program's output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The estimate `n̂`.
    pub estimate: f64,
    /// The true population `n` it estimates.
    pub truth: f64,
    /// The sliding-window mean (monitor deltas only).
    pub windowed: Option<f64>,
    /// Slots the estimate spent (estimate replies only).
    pub slots: Option<u64>,
}

impl Sample {
    /// Bit-for-bit equality, so `-0.0`, `NaN` payloads and the last ulp
    /// all count.
    pub fn same(&self, other: &Sample) -> bool {
        self.estimate.to_bits() == other.estimate.to_bits()
            && self.truth.to_bits() == other.truth.to_bits()
            && self.windowed.map(f64::to_bits) == other.windowed.map(f64::to_bits)
            && self.slots == other.slots
    }
}

/// Rejects an estimate that is not finite and positive.
pub fn positive_estimate(estimate: f64) -> Result<f64, String> {
    if estimate.is_finite() && estimate > 0.0 {
        Ok(estimate)
    } else {
        Err(format!("estimate {estimate} is not finite and positive"))
    }
}

/// What a request's reply must look like.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// One `estimate` line for a population of `tags`.
    Estimate {
        /// Requested population.
        tags: usize,
    },
    /// `updates` `monitor-delta` lines, then one `monitor` summary.
    Monitor {
        /// Requested update count.
        updates: usize,
    },
}

impl Expect {
    /// Reply lines the request produces.
    pub fn lines(self) -> usize {
        match self {
            Expect::Estimate { .. } => 1,
            Expect::Monitor { updates } => updates + 1,
        }
    }
}

fn envelope(line: &str, id: &str, verb: &str) -> Result<(), String> {
    let head = format!("{{\"id\":\"{id}\",\"ok\":true,\"verb\":\"{verb}\",");
    if line.starts_with(&head) && line.ends_with('}') {
        Ok(())
    } else {
        Err(format!(
            "expected an ok {verb:?} reply to {id:?}, got: {line}"
        ))
    }
}

/// Checks the reply lines of request `id` and returns its estimates.
///
/// # Errors
///
/// A missing or extra line, a reply to another id, an error reply, a
/// wrong verb, or a missing or non-positive estimate.
pub fn validate(id: &str, expect: Expect, lines: &[String]) -> Result<Vec<Sample>, String> {
    if lines.len() != expect.lines() {
        return Err(format!(
            "request {id:?} expects {} reply lines, got {}",
            expect.lines(),
            lines.len()
        ));
    }
    match expect {
        Expect::Estimate { tags } => {
            let line = &lines[0];
            envelope(line, id, "estimate")?;
            Ok(vec![Sample {
                estimate: positive_estimate(number(line, "estimate")?)?,
                truth: tags as f64,
                windowed: None,
                slots: Some(number(line, "slots")?),
            }])
        }
        Expect::Monitor { updates } => {
            let (deltas, summary) = lines.split_at(updates);
            let mut samples = Vec::with_capacity(updates);
            for (i, line) in deltas.iter().enumerate() {
                envelope(line, id, "monitor-delta")?;
                if number::<usize>(line, "update")? != i {
                    return Err(format!("delta {i} of {id:?} is out of order: {line}"));
                }
                samples.push(Sample {
                    estimate: positive_estimate(number(line, "estimate")?)?,
                    truth: number::<usize>(line, "population")? as f64,
                    windowed: Some(number(line, "windowed")?),
                    slots: None,
                });
            }
            envelope(&summary[0], id, "monitor")?;
            if number::<usize>(&summary[0], "updates")? != updates {
                return Err(format!("summary of {id:?} counts the wrong updates"));
            }
            Ok(samples)
        }
    }
}

/// The order-independent digest of a reply stream: XOR of each reply's
/// FNV-1a, where a multi-line reply is its lines joined by `\n`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// Folds one reply in.
    pub fn add(&mut self, reply: &str) {
        self.0 ^= fnv1a(reply.as_bytes());
    }
}

/// Runs one request line through a [`ServiceCore`] in process, as a
/// transport would, and returns the reply.
///
/// # Errors
///
/// The line was not a work request.
pub fn execute(core: &ServiceCore, line: &str) -> Result<String, String> {
    match core.handle_line(line.as_bytes()) {
        Some(Dispatch::Work(request)) => Ok(core.execute_work(&request, Instant::now())),
        Some(Dispatch::Reply(reply)) => Err(format!("request answered inline: {reply}")),
        _ => Err(format!("request {line:?} was not a work item")),
    }
}

/// A fresh core in deterministic mode, as the benchmark's server runs.
pub fn deterministic_core() -> ServiceCore {
    ServiceCore::new(&ServerConfig {
        deterministic: true,
        ..ServerConfig::default()
    })
}

/// Compares the digest of the replies a run received over the wire with
/// the digest of the same request stream run in process.
///
/// # Errors
///
/// The digests differ.
pub fn digests_agree(wire: Digest, in_process: Digest) -> Result<(), String> {
    if wire == in_process {
        Ok(())
    } else {
        Err(format!(
            "reply digest {:016x} differs from the in-process digest {:016x}",
            wire.0, in_process.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(reply: &str) -> Vec<String> {
        reply.lines().map(str::to_string).collect()
    }

    const EST: &str = r#"{"id":"e1","verb":"estimate","tags":300,"rounds":8}"#;
    const MON: &str = r#"{"id":"m1","verb":"monitor","tags":300,"updates":3,"window":2,"rounds":8,"churn_rate":3,"epsilon":0.2,"delta":0.2}"#;

    #[test]
    fn field_reads_values_not_verbs() {
        let line = r#"{"id":"x","ok":true,"verb":"estimate","estimate":12.5,"slots":40,"first_alarm":null}"#;
        assert_eq!(field(line, "estimate"), Some("12.5"));
        assert_eq!(field(line, "verb"), Some("estimate"));
        assert_eq!(field(line, "slots"), Some("40"));
        assert_eq!(field(line, "first_alarm"), Some("null"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn validator_accepts_real_replies() {
        let core = deterministic_core();
        let est = validate(
            "e1",
            Expect::Estimate { tags: 300 },
            &lines(&execute(&core, EST).unwrap()),
        )
        .unwrap();
        assert_eq!(est.len(), 1);
        assert_eq!(est[0].slots, Some(40));
        let mon = validate(
            "m1",
            Expect::Monitor { updates: 3 },
            &lines(&execute(&core, MON).unwrap()),
        )
        .unwrap();
        assert_eq!(mon.len(), 3);
        assert!(mon.iter().all(|s| s.truth == 300.0 && s.windowed.is_some()));
    }

    #[test]
    fn validator_rejects_a_corrupted_reply() {
        let core = deterministic_core();
        let good = execute(&core, EST).unwrap();
        let expect = Expect::Estimate { tags: 300 };
        let corrupted = [
            good.replace("\"ok\":true", "\"ok\":false"),
            good.replace("\"estimate\":", "\"estimat\":"),
            good.replace("\"verb\":\"estimate\"", "\"verb\":\"monitor\""),
            good[..good.len() - 1].to_string(),
            r#"{"id":"e1","ok":false,"error":"overloaded"}"#.to_string(),
        ];
        for bad in corrupted {
            assert!(
                validate("e1", expect, std::slice::from_ref(&bad)).is_err(),
                "{bad}"
            );
        }
        let negative = good.replacen("\"estimate\":", "\"estimate\":-", 1);
        assert!(validate("e1", expect, &[negative]).is_err());
    }

    #[test]
    fn validator_rejects_a_missing_reply() {
        let core = deterministic_core();
        assert!(validate("e1", Expect::Estimate { tags: 300 }, &[]).is_err());
        let mut mon = lines(&execute(&core, MON).unwrap());
        mon.remove(1);
        assert!(validate("m1", Expect::Monitor { updates: 3 }, &mon).is_err());
        mon.pop();
        assert!(validate("m1", Expect::Monitor { updates: 3 }, &mon).is_err());
    }

    #[test]
    fn validator_rejects_a_reordered_reply() {
        let core = deterministic_core();
        let other = execute(&core, &EST.replace("e1", "e2")).unwrap();
        // The reply to the next request arriving in this one's place.
        assert!(validate("e1", Expect::Estimate { tags: 300 }, &[other]).is_err());
        let mut mon = lines(&execute(&core, MON).unwrap());
        mon.swap(0, 1);
        assert!(validate("m1", Expect::Monitor { updates: 3 }, &mon).is_err());
        let mut mon = lines(&execute(&core, MON).unwrap());
        mon.swap(2, 3);
        assert!(validate("m1", Expect::Monitor { updates: 3 }, &mon).is_err());
    }
}
