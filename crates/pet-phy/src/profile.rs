//! Gen2 PHY profiles: per-slot-type timing plus an energy ledger.
//!
//! [`TimeModel`](crate::clock::TimeModel) and
//! [`EnergyModel`](crate::energy::EnergyModel) each convert one dimension of
//! [`AirMetrics`]; a [`PhyProfile`] bundles both into a single named set of
//! physical-layer assumptions and produces a [`PhyReport`] — wall-clock
//! milliseconds and a microjoule ledger split into reader TX, reader RX, and
//! tag backscatter — for one protocol execution.
//!
//! The conversion is a *pure fold* over the already-recorded metrics: it
//! reads `AirMetrics` and nothing else, consumes no randomness, and cannot
//! influence slot outcomes or estimates. That invariant is what lets the
//! estimator attach a PHY report to every run with bit-for-bit unchanged
//! estimates (pinned by the `phy_conformance` proptest differential).

use crate::metrics::AirMetrics;

/// A named set of physical-layer assumptions: per-slot-type durations,
/// reader link rate, and reader/tag power figures.
///
/// Unlike [`TimeModel`](crate::clock::TimeModel), collision slots are timed
/// separately from singletons: a Gen2 reader that detects an RN16 preamble
/// collision can abort the reply window early and issue the next QueryRep,
/// so a collision slot is shorter than a cleanly decoded singleton.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyProfile {
    /// Duration of an idle slot (no-reply timeout after the command), µs.
    pub idle_us: f64,
    /// Duration of a singleton slot (full RN16 backscatter decoded), µs.
    pub singleton_us: f64,
    /// Duration of a collision slot (preamble heard, reply aborted), µs.
    pub collision_us: f64,
    /// Reader transmission time per command bit (link-rate inverse), µs.
    pub us_per_command_bit: f64,
    /// Reader transmit power while sending commands and CW, milliwatts.
    pub reader_tx_mw: f64,
    /// Reader receive power while listening for replies, milliwatts.
    pub reader_rx_mw: f64,
    /// Energy a semi-passive tag spends per backscattered response, µJ.
    pub tag_response_uj: f64,
}

impl PhyProfile {
    /// EPC C1G2-inspired defaults: 40 kbps reader link (25 µs/bit), 300 µs
    /// no-reply timeout, 800 µs for a decoded RN16 reply, 575 µs for a
    /// collision aborted after the preamble; 1 W ERP reader TX, 100 mW RX,
    /// 1 µJ per semi-passive tag response.
    #[must_use]
    pub fn gen2() -> Self {
        Self {
            idle_us: 300.0,
            singleton_us: 800.0,
            collision_us: 575.0,
            us_per_command_bit: 25.0,
            reader_tx_mw: 1_000.0,
            reader_rx_mw: 100.0,
            tag_response_uj: 1.0,
        }
    }

    /// Looks up a profile by name (the CLI/server `--phy` knob). Currently
    /// `"gen2"`; adding a profile means adding a constructor and an arm
    /// here (see DESIGN.md "PHY profile").
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "gen2" => Some(Self::gen2()),
            _ => None,
        }
    }

    /// Reader TX air time for the recorded metrics, µs (command bits only;
    /// the CW powering tag replies is charged to the slot windows).
    #[must_use]
    fn tx_us(&self, m: &AirMetrics) -> f64 {
        self.us_per_command_bit * m.command_bits as f64
    }

    /// Reader listen time for the recorded metrics, µs.
    #[must_use]
    fn rx_us(&self, m: &AirMetrics) -> f64 {
        self.idle_us * m.idle as f64
            + self.singleton_us * m.singleton as f64
            + self.collision_us * m.collision as f64
    }

    /// Folds the metrics of one finished run into wall-clock time and the
    /// energy ledger. Pure: reads `AirMetrics` only.
    #[must_use]
    pub fn report(&self, m: &AirMetrics) -> PhyReport {
        let tx_us = self.tx_us(m);
        let rx_us = self.rx_us(m);
        // mW × µs = nJ; divide by 1e3 for µJ.
        let reader_tx_uj = self.reader_tx_mw * tx_us / 1e3;
        let reader_rx_uj = self.reader_rx_mw * rx_us / 1e3;
        let tag_uj = m.tag_responses as f64 * self.tag_response_uj;
        PhyReport {
            wall_ms: (tx_us + rx_us) / 1e3,
            reader_tx_uj,
            reader_rx_uj,
            tag_uj,
            energy_uj: reader_tx_uj + reader_rx_uj + tag_uj,
        }
    }
}

impl Default for PhyProfile {
    fn default() -> Self {
        Self::gen2()
    }
}

/// Physical-layer ledger for one protocol execution under a [`PhyProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhyReport {
    /// Total air time, milliseconds.
    pub wall_ms: f64,
    /// Reader energy spent transmitting command bits, µJ.
    pub reader_tx_uj: f64,
    /// Reader energy spent listening across slot windows, µJ.
    pub reader_rx_uj: f64,
    /// Tag-side backscatter energy (semi-passive tags), µJ.
    pub tag_uj: f64,
    /// Total: reader TX + reader RX + tag, µJ.
    pub energy_uj: f64,
}

impl PhyReport {
    /// Total air time in whole µs, the unit telemetry sums runs in. Exact
    /// for a profile whose slot and command-bit durations are whole µs,
    /// such as [`PhyProfile::gen2`].
    #[must_use]
    pub fn wall_us(&self) -> u64 {
        (self.wall_ms * 1e3).round() as u64
    }

    /// Total energy in whole nJ, the unit telemetry sums runs in. Exact
    /// for a profile whose durations are whole µs, powers whole mW and tag
    /// energy whole nJ, such as [`PhyProfile::gen2`].
    #[must_use]
    pub fn energy_nj(&self) -> u64 {
        (self.energy_uj * 1e3).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slot::SlotOutcome;

    fn metrics() -> AirMetrics {
        let mut m = AirMetrics::default();
        m.record_slot(32, 0, SlotOutcome::Idle); // 300 µs RX, 800 µs TX
        m.record_slot(32, 1, SlotOutcome::Singleton); // 800 µs RX
        m.record_slot(32, 5, SlotOutcome::Collision); // 575 µs RX
        m
    }

    #[test]
    fn gen2_ledger_components() {
        let r = PhyProfile::gen2().report(&metrics());
        // TX: 96 bits × 25 µs = 2400 µs at 1000 mW → 2400 µJ.
        assert!((r.reader_tx_uj - 2400.0).abs() < 1e-9);
        // RX: (300 + 800 + 575) µs at 100 mW → 167.5 µJ.
        assert!((r.reader_rx_uj - 167.5).abs() < 1e-9);
        // Tags: 6 responses × 1 µJ.
        assert!((r.tag_uj - 6.0).abs() < 1e-12);
        assert!((r.energy_uj - (2400.0 + 167.5 + 6.0)).abs() < 1e-9);
        // Wall: 2400 + 1675 µs = 4.075 ms.
        assert!((r.wall_ms - 4.075).abs() < 1e-9);
    }

    #[test]
    fn report_is_additive_over_metrics() {
        let p = PhyProfile::gen2();
        let m = metrics();
        let double = m + m;
        let one = p.report(&m);
        let two = p.report(&double);
        assert!((two.wall_ms - 2.0 * one.wall_ms).abs() < 1e-9);
        assert!((two.energy_uj - 2.0 * one.energy_uj).abs() < 1e-9);
    }

    #[test]
    fn named_lookup() {
        assert_eq!(PhyProfile::named("gen2"), Some(PhyProfile::gen2()));
        assert_eq!(PhyProfile::named("gen3"), None);
    }

    #[test]
    fn empty_metrics_cost_nothing() {
        let r = PhyProfile::gen2().report(&AirMetrics::default());
        assert_eq!(r, PhyReport::default());
    }

    #[test]
    fn collisions_cheaper_than_singletons() {
        let p = PhyProfile::gen2();
        assert!(p.collision_us < p.singleton_us);
        assert!(p.idle_us < p.collision_us);
    }
}
