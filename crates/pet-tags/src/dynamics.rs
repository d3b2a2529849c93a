//! Join/leave schedules for dynamic tag sets.
//!
//! §4.6.3: "the tags are attached to mobile objects" and may enter or leave
//! the region between estimation runs. Because every PET estimate is a
//! fresh, anonymous snapshot, the protocol handles churn without any state
//! migration; these schedules let the examples and integration tests drive
//! such scenarios reproducibly.

use crate::epc::Epc96;
use crate::population::{leave_tail, sequential_keys, TagPopulation};
use crate::tag::{Tag, TagKind};
use std::fmt;

/// One churn event applied between estimation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// `count` new tags enter the region.
    Join(usize),
    /// `count` tags leave the region.
    Leave(usize),
}

impl ChurnEvent {
    /// The population size after this event hits a population of `len`
    /// (leaves saturate at empty).
    fn size_after(self, len: usize) -> usize {
        match self {
            Self::Join(count) => len + count,
            Self::Leave(count) => len.saturating_sub(count),
        }
    }
}

/// A deterministic rate-driven churn schedule for continuous monitoring:
/// every update sees `rate` joins and `rate` leaves (so the population
/// holds steady in expectation while its membership turns over), plus one
/// optional missing-tag *burst* — a large one-off leave modelling a pallet
/// going missing — at a fixed update index.
///
/// Shared by the sim sweep, the serving layer's `monitor` verb, and the
/// `pet monitor` CLI so all three drive bit-identical populations from the
/// same parameters.
///
/// # Example
///
/// ```
/// use pet_tags::dynamics::{ChurnEvent, ChurnSchedule, Timeline};
/// use pet_tags::population::TagPopulation;
///
/// let schedule = ChurnSchedule {
///     rate: 10,
///     burst_at: Some(2),
///     burst_size: 50,
/// };
/// let mut t = Timeline::new(TagPopulation::sequential(100));
/// for update in 0..4 {
///     for event in schedule.events_at(update) {
///         t.apply(event);
///     }
/// }
/// // Steady churn preserves the size; the burst removed 50 for good.
/// assert_eq!(t.population().len(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSchedule {
    /// Tags joining *and* leaving per update (balanced steady churn).
    pub rate: usize,
    /// Update index at which the missing-tag burst strikes; `None` for a
    /// burst-free schedule.
    pub burst_at: Option<usize>,
    /// Tags lost in the burst.
    pub burst_size: usize,
}

impl ChurnSchedule {
    /// A steady balanced-churn schedule with no burst.
    #[must_use]
    pub fn steady(rate: usize) -> Self {
        Self {
            rate,
            burst_at: None,
            burst_size: 0,
        }
    }

    /// The churn events to apply *before* estimating at `update`, in
    /// application order: leaves, then matched fresh joins, then (when the
    /// burst strikes this update) the burst leave. Leaves come first
    /// because [`Timeline`] removes from the tail — joining first would
    /// make the matched leave remove exactly the tags just joined, turning
    /// the schedule into a no-op instead of membership turnover.
    #[must_use]
    pub fn events_at(&self, update: usize) -> Vec<ChurnEvent> {
        let mut events = Vec::with_capacity(3);
        if self.rate > 0 {
            events.push(ChurnEvent::Leave(self.rate));
            events.push(ChurnEvent::Join(self.rate));
        }
        if self.burst_at == Some(update) && self.burst_size > 0 {
            events.push(ChurnEvent::Leave(self.burst_size));
        }
        events
    }

    /// Checks that the schedule runs as specified over `updates` updates
    /// of an initial population of `tags`, reporting the first violation
    /// in this order: a rate above `tags` (the leaves would saturate while
    /// the joins add the full rate, so balanced churn would grow the
    /// population), a burst at or after the last update (it would never
    /// fire), a burst size outside `1..tags` (it would be empty or empty
    /// the region), and a rate above the `tags − burst_size` tags a burst
    /// leaves when an update follows it (that update's leaves would
    /// saturate the same way, and its joins would bring the lost tags
    /// back).
    ///
    /// # Errors
    ///
    /// The [`ChurnError`] of the first violated rule.
    pub fn validate(&self, tags: usize, updates: usize) -> Result<(), ChurnError> {
        if self.rate > tags {
            return Err(ChurnError::RateAboveTags);
        }
        if let Some(at) = self.burst_at {
            if at >= updates {
                return Err(ChurnError::BurstAfterRun);
            }
            if self.burst_size == 0 || self.burst_size >= tags {
                return Err(ChurnError::BadBurstSize);
            }
            if at + 1 < updates && self.rate > tags - self.burst_size {
                return Err(ChurnError::RateAboveBurstSurvivors);
            }
        }
        Ok(())
    }
}

/// A [`ChurnSchedule`] that cannot run as specified
/// ([`ChurnSchedule::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnError {
    /// The churn rate exceeds the initial population.
    RateAboveTags,
    /// The burst strikes at or after the last update.
    BurstAfterRun,
    /// A burst is set but its size is not in `1..tags`.
    BadBurstSize,
    /// An update follows the burst and the churn rate exceeds the
    /// `tags − burst_size` tags the burst leaves.
    RateAboveBurstSurvivors,
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RateAboveTags => write!(f, "churn rate must not exceed the initial population"),
            Self::BurstAfterRun => write!(f, "the burst must strike before the last update"),
            Self::BadBurstSize => write!(
                f,
                "the burst size must be at least 1 and below the initial population"
            ),
            Self::RateAboveBurstSurvivors => write!(
                f,
                "churn rate must not exceed the population a burst leaves when an update follows it"
            ),
        }
    }
}

impl std::error::Error for ChurnError {}

/// Manager number of the "visitor" namespace joins mint their EPCs in.
const VISITOR_MANAGER: u32 = 0x0D15_EA5E;
/// Object class of minted visitor EPCs.
const VISITOR_CLASS: u32 = 0x7777;

/// The EPC of the `serial`-th tag a join mints: the dedicated visitor
/// manager number keeps minted tags apart from every sequential population.
fn visitor_epc(serial: u64) -> Epc96 {
    Epc96::new(0x30, VISITOR_MANAGER, VISITOR_CLASS, serial).expect("fields in range")
}

/// A reproducible timeline of churn events over a population.
///
/// # Example
///
/// ```
/// use pet_tags::dynamics::{ChurnEvent, Timeline};
/// use pet_tags::population::TagPopulation;
///
/// let mut t = Timeline::new(TagPopulation::sequential(100));
/// t.apply(ChurnEvent::Join(50));
/// t.apply(ChurnEvent::Leave(25));
/// assert_eq!(t.population().len(), 125);
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    population: TagPopulation,
    /// Serial of the next minted visitor EPC, above every visitor serial
    /// in the population, so joins need no duplicate scan.
    next_serial: u64,
    history: Vec<(ChurnEvent, usize)>,
}

impl Timeline {
    /// Starts a timeline from an initial population. Joins mint above the
    /// highest visitor serial it holds, so a population taken from another
    /// timeline keeps joining fresh tags.
    #[must_use]
    pub fn new(initial: TagPopulation) -> Self {
        let next_serial = initial
            .tags()
            .iter()
            .map(Tag::epc)
            .filter(|&epc| visitor_epc(epc.serial()) == epc)
            .map(|epc| epc.serial() + 1)
            .max()
            .unwrap_or(0);
        Self {
            population: initial,
            next_serial,
            history: Vec::new(),
        }
    }

    /// The current population.
    #[must_use]
    pub fn population(&self) -> &TagPopulation {
        &self.population
    }

    /// Applies one event, returning the resulting population size.
    ///
    /// Joins mint fresh EPCs under a dedicated "visitor" manager number so
    /// they can never collide with the initial population; leaves remove
    /// from the tail (the most recently joined leave first, a turnstile
    /// pattern).
    pub fn apply(&mut self, event: ChurnEvent) -> usize {
        match event {
            ChurnEvent::Join(count) => {
                for _ in 0..count {
                    let tag = Tag::new(visitor_epc(self.next_serial), TagKind::Passive);
                    self.next_serial += 1;
                    self.population.push_minted(tag);
                }
            }
            ChurnEvent::Leave(count) => {
                self.population.remove_last(count);
            }
        }
        self.history.push((event, self.population.len()));
        self.population.len()
    }

    /// Applies every event in order, returning the size after each.
    pub fn run(&mut self, events: &[ChurnEvent]) -> Vec<usize> {
        events.iter().map(|&e| self.apply(e)).collect()
    }

    /// The `(event, size-after)` history.
    #[must_use]
    pub fn history(&self) -> &[(ChurnEvent, usize)] {
        &self.history
    }
}

/// The key-level twin of [`Timeline`]: the same joins and leaves over the
/// tags' 64-bit hashing keys alone (8 bytes a tag, no [`Tag`]s), reporting
/// each update's net change as a [`KeyDelta`] so that a consumer can apply
/// it instead of rebuilding from the whole key set.
///
/// The keys form a stack in [`Timeline`]'s order: leaves pop the tail and
/// joins push freshly minted visitor keys. So when an update's events take
/// the stack down to `low` keys at their lowest, the update removed
/// exactly the old `stack[low..]` and added exactly the new `stack[low..]`:
/// tags that join and leave within one update cancel out, and a minted key
/// is never one that left.
///
/// # Example
///
/// ```
/// use pet_tags::dynamics::{ChurnEvent, KeyTimeline, Timeline};
/// use pet_tags::population::TagPopulation;
///
/// let mut keys = KeyTimeline::sequential(100);
/// let mut tags = Timeline::new(TagPopulation::sequential(100));
/// let events = [ChurnEvent::Leave(10), ChurnEvent::Join(10), ChurnEvent::Leave(30)];
/// let before = keys.keys().to_vec();
/// let delta = keys.update(&events);
/// // The stack fell to 70: 30 originals left, and the 10 visitors that
/// // joined left again in the burst.
/// assert_eq!(delta.left, &before[70..]);
/// assert!(delta.joined.is_empty());
/// tags.run(&events);
/// assert!(keys.keys().iter().copied().eq(tags.population().keys()));
/// ```
#[derive(Debug, Clone)]
pub struct KeyTimeline {
    keys: Vec<u64>,
    /// Serial of the next minted visitor key.
    next_serial: u64,
    /// The keys the last update removed.
    left: Vec<u64>,
}

/// One update's net key change ([`KeyTimeline::update`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyDelta<'a> {
    /// Keys present before the update and absent after it.
    pub left: &'a [u64],
    /// Keys absent before the update and present after it.
    pub joined: &'a [u64],
}

impl KeyTimeline {
    /// The keys of [`TagPopulation::sequential`]`(n)`, in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 36-bit serial space.
    #[must_use]
    pub fn sequential(n: usize) -> Self {
        Self {
            keys: sequential_keys(n).collect(),
            next_serial: 0,
            left: Vec::new(),
        }
    }

    /// [`Self::sequential`]`(keys.len())` from a copy of its keys, which
    /// `keys` must be (say, a cache's copy of them), without deriving them
    /// again.
    #[must_use]
    pub fn from_sequential_keys(keys: &[u64]) -> Self {
        Self {
            keys: keys.to_vec(),
            next_serial: 0,
            left: Vec::new(),
        }
    }

    /// The current keys, in [`Timeline`]'s population order.
    #[must_use]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Applies one update's events in order, as [`Timeline::apply`] does
    /// each, and returns the update's net change: with `low` the smallest
    /// size the events reach (the size before them included), `left` is
    /// the old `keys[low..]` and `joined` the new `keys[low..]`.
    pub fn update(&mut self, events: &[ChurnEvent]) -> KeyDelta<'_> {
        let low = events
            .iter()
            .scan(self.keys.len(), |len, &event| {
                *len = event.size_after(*len);
                Some(*len)
            })
            .fold(self.keys.len(), usize::min);
        self.left.clear();
        self.left.extend_from_slice(&self.keys[low..]);
        for &event in events {
            match event {
                ChurnEvent::Join(count) => {
                    let minted = self.next_serial..self.next_serial + count as u64;
                    self.keys
                        .extend(minted.map(|serial| visitor_epc(serial).tag_key()));
                    self.next_serial += count as u64;
                }
                ChurnEvent::Leave(count) => {
                    leave_tail(&mut self.keys, count);
                }
            }
        }
        KeyDelta {
            left: &self.left,
            joined: &self.keys[low..],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_then_leave_sizes() {
        let mut t = Timeline::new(TagPopulation::sequential(10));
        let sizes = t.run(&[
            ChurnEvent::Join(5),
            ChurnEvent::Leave(3),
            ChurnEvent::Join(1),
        ]);
        assert_eq!(sizes, vec![15, 12, 13]);
        assert_eq!(t.history().len(), 3);
    }

    #[test]
    fn joins_mint_unique_epcs() {
        let mut t = Timeline::new(TagPopulation::sequential(100));
        t.apply(ChurnEvent::Join(200));
        let mut keys: Vec<u64> = t.population().keys().collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 300);
    }

    #[test]
    fn leave_saturates_at_empty() {
        let mut t = Timeline::new(TagPopulation::sequential(2));
        assert_eq!(t.apply(ChurnEvent::Leave(10)), 0);
        assert_eq!(t.apply(ChurnEvent::Join(1)), 1);
    }

    #[test]
    fn schedule_turns_membership_over_at_constant_size() {
        let schedule = ChurnSchedule::steady(5);
        let mut t = Timeline::new(TagPopulation::sequential(50));
        let before: Vec<u64> = t.population().keys().collect();
        for update in 0..3 {
            for event in schedule.events_at(update) {
                t.apply(event);
            }
            assert_eq!(t.population().len(), 50, "steady churn holds the size");
        }
        let after: Vec<u64> = t.population().keys().collect();
        // Turnstile semantics: the first leave displaces 5 originals, and
        // every later leave displaces the previous update's visitors — so
        // the population always differs from the update before by 5 fresh
        // EPCs (the churn the monitor sees), while 45 originals persist.
        let kept = after.iter().filter(|k| before.contains(k)).count();
        assert_eq!(kept, 45, "exactly one rate's worth of originals leave");
        assert_ne!(after, before, "membership must actually turn over");
    }

    #[test]
    fn schedule_burst_fires_once_at_its_update() {
        let schedule = ChurnSchedule {
            rate: 2,
            burst_at: Some(1),
            burst_size: 30,
        };
        assert_eq!(
            schedule.events_at(0),
            vec![ChurnEvent::Leave(2), ChurnEvent::Join(2)]
        );
        assert_eq!(
            schedule.events_at(1),
            vec![
                ChurnEvent::Leave(2),
                ChurnEvent::Join(2),
                ChurnEvent::Leave(30)
            ]
        );
        assert_eq!(schedule.events_at(2).len(), 2);
        // Rate 0 with a burst is a pure missing-tag scenario.
        let pure = ChurnSchedule {
            rate: 0,
            burst_at: Some(0),
            burst_size: 10,
        };
        assert_eq!(pure.events_at(0), vec![ChurnEvent::Leave(10)]);
        assert!(pure.events_at(1).is_empty());
        assert!(ChurnSchedule::steady(0).events_at(0).is_empty());
    }

    /// A timeline started from another timeline's population mints above
    /// the visitor serials it already holds instead of restarting at 0.
    #[test]
    fn timeline_from_a_churned_population_mints_fresh_epcs() {
        let mut first = Timeline::new(TagPopulation::sequential(10));
        first.apply(ChurnEvent::Join(3));
        let mut second = Timeline::new(first.population().clone());
        assert_eq!(second.apply(ChurnEvent::Join(4)), 17);
        let mut keys: Vec<u64> = second.population().keys().collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 17);
    }

    /// Every update leaves the key twin holding exactly the timeline's
    /// keys, and its delta is the net change: disjoint `left` and `joined`
    /// with old − left + joined = new as multisets.
    #[test]
    fn key_timeline_tracks_timeline_and_reports_the_net_delta() {
        use ChurnEvent::{Join, Leave};
        let updates: [&[ChurnEvent]; 9] = [
            &[Leave(5), Join(5)],
            &[Leave(5), Join(5), Leave(30)],
            &[Join(7), Leave(3)],
            &[Leave(2), Join(9), Leave(4), Join(1)],
            &[],
            &[Leave(1_000)],
            &[Join(6)],
            &[Leave(6), Join(6)],
            &[Join(2), Leave(8)],
        ];
        let mut tags = Timeline::new(TagPopulation::sequential(50));
        let mut keys = KeyTimeline::sequential(50);
        assert!(keys.keys().iter().copied().eq(tags.population().keys()));
        for events in updates {
            let before = keys.keys().to_vec();
            let low = events
                .iter()
                .scan(before.len(), |len, e| {
                    *len = e.size_after(*len);
                    Some(*len)
                })
                .fold(before.len(), usize::min);
            tags.run(events);
            let delta = keys.update(events);
            let (left, joined) = (delta.left.to_vec(), delta.joined.to_vec());
            assert_eq!(left, before[low..], "{events:?}");
            assert!(left.iter().all(|k| !joined.contains(k)), "{events:?}");
            let mut rebuilt: Vec<u64> = before[..before.len() - left.len()].to_vec();
            rebuilt.extend(&joined);
            assert_eq!(rebuilt, keys.keys(), "{events:?}");
            assert!(keys.keys().iter().copied().eq(tags.population().keys()));
        }
    }

    /// A timeline started from a copy of the sequential keys is the
    /// sequential timeline: the same keys, and the same deltas and keys
    /// after every update.
    #[test]
    fn from_sequential_keys_equals_sequential() {
        use ChurnEvent::{Join, Leave};
        for n in [0, 1, 50, 1_000] {
            let keys: Vec<u64> = sequential_keys(n).collect();
            let mut copied = KeyTimeline::from_sequential_keys(&keys);
            let mut derived = KeyTimeline::sequential(n);
            assert_eq!(copied.keys(), derived.keys(), "n = {n}");
            for events in [&[Leave(5), Join(5)][..], &[Join(9), Leave(30)], &[]] {
                let delta = copied.update(events);
                let (left, joined) = (delta.left.to_vec(), delta.joined.to_vec());
                let want = derived.update(events);
                assert_eq!((&left[..], &joined[..]), (want.left, want.joined));
                assert_eq!(copied.keys(), derived.keys(), "n = {n}, {events:?}");
            }
        }
    }

    #[test]
    fn validate_reports_the_first_violated_rule() {
        let schedule = |rate, burst_at, burst_size| ChurnSchedule {
            rate,
            burst_at,
            burst_size,
        };
        assert_eq!(schedule(10, Some(7), 9).validate(10, 8), Ok(()));
        assert_eq!(schedule(0, None, 50).validate(10, 8), Ok(()));
        assert_eq!(
            schedule(11, Some(8), 0).validate(10, 8),
            Err(ChurnError::RateAboveTags)
        );
        assert_eq!(
            schedule(3, Some(8), 0).validate(10, 8),
            Err(ChurnError::BurstAfterRun)
        );
        for size in [0, 10, 11] {
            assert_eq!(
                schedule(3, Some(2), size).validate(10, 8),
                Err(ChurnError::BadBurstSize)
            );
        }
        // A rate above the burst's survivors refills them one update later,
        // unless the burst strikes at the last update.
        assert_eq!(schedule(1, Some(6), 9).validate(10, 8), Ok(()));
        assert_eq!(schedule(3, Some(2), 7).validate(10, 8), Ok(()));
        for (rate, at, size) in [(2, 6, 9), (10, 1, 9), (4, 0, 7)] {
            assert_eq!(
                schedule(rate, Some(at), size).validate(10, 8),
                Err(ChurnError::RateAboveBurstSurvivors),
                "rate {rate}, burst of {size} at {at}"
            );
        }
        assert_eq!(
            schedule(11, Some(1), 9).validate(10, 8),
            Err(ChurnError::RateAboveTags)
        );
        assert_eq!(
            schedule(10, Some(1), 10).validate(10, 8),
            Err(ChurnError::BadBurstSize)
        );
    }

    #[test]
    fn rejoining_after_leave_still_unique() {
        // Tags that leave and new tags that join must not collide even
        // though leaves pop from the tail.
        let mut t = Timeline::new(TagPopulation::sequential(5));
        t.apply(ChurnEvent::Join(3));
        t.apply(ChurnEvent::Leave(3));
        t.apply(ChurnEvent::Join(3));
        let mut keys: Vec<u64> = t.population().keys().collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }
}
