//! Tag population generators.
//!
//! The evaluation sweeps tag counts from thousands to a million (§5); these
//! builders produce such populations deterministically (sequential serials)
//! or randomized (random EPC fields, still guaranteed duplicate-free).

use crate::epc::Epc96;
use crate::tag::{Tag, TagKind};
use rand::Rng;
use std::collections::HashSet;

/// An owned set of tags with unique EPCs.
///
/// # Example
///
/// ```
/// use pet_tags::population::TagPopulation;
/// use pet_tags::tag::TagKind;
///
/// let pop = TagPopulation::sequential(100);
/// assert_eq!(pop.len(), 100);
/// assert!(pop.tags().iter().all(|t| t.kind() == TagKind::Passive));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TagPopulation {
    tags: Vec<Tag>,
}

impl TagPopulation {
    /// An empty population.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `n` passive tags with sequential serials under one manager/class —
    /// the structured worst case for a weak hash (and therefore the default
    /// workload in tests).
    #[must_use]
    pub fn sequential(n: usize) -> Self {
        Self::sequential_with_kind(n, TagKind::Passive)
    }

    /// `n` sequential-serial tags of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the 36-bit serial space.
    #[must_use]
    pub fn sequential_with_kind(n: usize, kind: TagKind) -> Self {
        let tags = sequential_epcs(n).map(|epc| Tag::new(epc, kind)).collect();
        Self { tags }
    }

    /// `n` passive tags with random (but unique) EPCs.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut seen = HashSet::with_capacity(n);
        let mut tags = Vec::with_capacity(n);
        while tags.len() < n {
            let epc = Epc96::new(
                0x30,
                rng.random_range(0..1u32 << 28),
                rng.random_range(0..1u32 << 24),
                rng.random_range(0..1u64 << 36),
            )
            .expect("sampled in range");
            if seen.insert(epc) {
                tags.push(Tag::new(epc, TagKind::Passive));
            }
        }
        Self { tags }
    }

    /// Builds a population from explicit tags.
    ///
    /// # Panics
    ///
    /// Panics if two tags share an EPC — duplicate identities would break
    /// every estimator's independence assumptions silently.
    #[must_use]
    pub fn from_tags(tags: Vec<Tag>) -> Self {
        let mut seen = HashSet::with_capacity(tags.len());
        for t in &tags {
            assert!(seen.insert(t.epc()), "duplicate EPC {}", t.epc());
        }
        Self { tags }
    }

    /// Number of tags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The tags, in insertion order.
    #[must_use]
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// The 64-bit hashing keys of all tags.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.tags.iter().map(Tag::key)
    }

    /// Adds a tag (a join event).
    ///
    /// # Panics
    ///
    /// Panics if the EPC already exists in the population.
    pub fn push(&mut self, tag: Tag) {
        assert!(!self.contains(tag.epc()), "duplicate EPC {}", tag.epc());
        self.tags.push(tag);
    }

    /// Adds a tag whose EPC is unique by construction (a minted join),
    /// without [`Self::push`]'s scan of every tag; debug builds still scan.
    pub(crate) fn push_minted(&mut self, tag: Tag) {
        debug_assert!(!self.contains(tag.epc()), "duplicate EPC {}", tag.epc());
        self.tags.push(tag);
    }

    fn contains(&self, epc: Epc96) -> bool {
        self.tags.iter().any(|t| t.epc() == epc)
    }

    /// Removes up to `count` tags from the tail (a leave event), returning
    /// how many actually left.
    pub fn remove_last(&mut self, count: usize) -> usize {
        leave_tail(&mut self.tags, count)
    }

    /// A new population containing the first `count` tags.
    #[must_use]
    pub fn take_prefix(&self, count: usize) -> Self {
        Self {
            tags: self.tags[..count.min(self.tags.len())].to_vec(),
        }
    }
}

/// The EPCs of [`TagPopulation::sequential`]'s `n` tags, in order.
///
/// # Panics
///
/// Panics if `n` exceeds the 36-bit serial space.
pub(crate) fn sequential_epcs(n: usize) -> impl Iterator<Item = Epc96> {
    assert!((n as u64) < (1 << 36), "serial space exhausted");
    (0..n as u64).map(|serial| Epc96::new(0x30, 0x5EADED, 0x0001, serial).expect("fields in range"))
}

/// The hashing keys of [`TagPopulation::sequential`]`(n)`'s tags, in
/// order, derived from their serials without building the tags.
///
/// # Panics
///
/// Panics if `n` exceeds the 36-bit serial space.
pub fn sequential_keys(n: usize) -> impl Iterator<Item = u64> {
    sequential_epcs(n).map(|epc| epc.tag_key())
}

/// A leave event on a stack of tags or keys: pops up to `count` from the
/// tail, saturating at empty, and returns how many left.
pub(crate) fn leave_tail<T>(stack: &mut Vec<T>, count: usize) -> usize {
    let removed = count.min(stack.len());
    stack.truncate(stack.len() - removed);
    removed
}

impl FromIterator<Tag> for TagPopulation {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        Self::from_tags(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a TagPopulation {
    type Item = &'a Tag;
    type IntoIter = std::slice::Iter<'a, Tag>;

    fn into_iter(self) -> Self::IntoIter {
        self.tags.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequential_population_is_unique() {
        let pop = TagPopulation::sequential(5000);
        let keys: HashSet<u64> = pop.keys().collect();
        assert_eq!(keys.len(), 5000);
    }

    #[test]
    fn random_population_is_unique_and_sized() {
        let mut rng = StdRng::seed_from_u64(7);
        let pop = TagPopulation::random(3000, &mut rng);
        assert_eq!(pop.len(), 3000);
        let epcs: HashSet<Epc96> = pop.tags().iter().map(Tag::epc).collect();
        assert_eq!(epcs.len(), 3000);
    }

    #[test]
    #[should_panic(expected = "duplicate EPC")]
    fn from_tags_rejects_duplicates() {
        let t = Tag::new(Epc96::new(0x30, 1, 1, 1).unwrap(), TagKind::Passive);
        let _ = TagPopulation::from_tags(vec![t, t]);
    }

    #[test]
    #[should_panic(expected = "duplicate EPC")]
    fn push_rejects_duplicates() {
        let t = Tag::new(Epc96::new(0x30, 1, 1, 1).unwrap(), TagKind::Passive);
        let mut pop = TagPopulation::new();
        pop.push(t);
        pop.push(t);
    }

    #[test]
    fn join_and_leave() {
        let mut pop = TagPopulation::sequential(10);
        let newcomer = Tag::new(Epc96::new(0x31, 9, 9, 9).unwrap(), TagKind::Active);
        pop.push(newcomer);
        assert_eq!(pop.len(), 11);
        assert_eq!(pop.remove_last(3), 3);
        assert_eq!(pop.len(), 8);
        assert_eq!(pop.remove_last(100), 8);
        assert!(pop.is_empty());
        assert_eq!(pop.remove_last(1), 0);
    }

    #[test]
    fn prefix_and_iteration() {
        let pop = TagPopulation::sequential(10);
        let head = pop.take_prefix(4);
        assert_eq!(head.len(), 4);
        assert_eq!(pop.into_iter().count(), 10);
        let collected: TagPopulation = pop.tags().iter().copied().collect();
        assert_eq!(collected.len(), 10);
    }
}
