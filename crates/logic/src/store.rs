//! The guard-indexed relation store.
//!
//! Algorithm 1 keeps the growing relation `R` and, at every frontier pop,
//! decides `⋀R ⊨ ψ`. Stage-1 template filtering (§6.2) makes that
//! entailment depend *only* on the premises whose guard equals `ψ`'s —
//! guards are mutually exclusive, so every other premise is vacuous and is
//! discarded before lowering. A flat `Vec<ConfRel>` therefore pays an
//! O(|R|) scan per pop just to throw most of `R` away.
//!
//! [`RelationStore`] replaces the flat vector: relations are kept in
//! insertion order (so the certificate's `R` is byte-identical to the
//! historical behaviour) *and* indexed by [`TemplatePair`] guard, so the
//! premise set for an entailment check is fetched in O(matching). Entries
//! are `Arc`-shared: the provenance table, the dedup map, and the store
//! reference the same allocation.

use std::collections::HashMap;
use std::sync::Arc;

use crate::confrel::ConfRel;
use crate::templates::TemplatePair;

/// The relation `R`, ordered by insertion and indexed by guard.
#[derive(Debug, Clone, Default)]
pub struct RelationStore {
    rels: Vec<Arc<ConfRel>>,
    by_guard: HashMap<TemplatePair, Vec<u32>>,
}

impl RelationStore {
    /// An empty store.
    pub fn new() -> RelationStore {
        RelationStore::default()
    }

    /// Number of relations stored.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Appends a relation (insertion order is preserved by [`Self::iter`]
    /// and [`Self::to_vec`]).
    pub fn push(&mut self, rel: Arc<ConfRel>) {
        let idx = self.rels.len() as u32;
        self.by_guard.entry(rel.guard).or_default().push(idx);
        self.rels.push(rel);
    }

    /// The premises whose guard equals `guard`, in insertion order — the
    /// exact set stage-1 template filtering would keep from a linear scan.
    pub fn matching(&self, guard: TemplatePair) -> Vec<&ConfRel> {
        match self.by_guard.get(&guard) {
            Some(ids) => ids.iter().map(|&i| &*self.rels[i as usize]).collect(),
            None => Vec::new(),
        }
    }

    /// How many premises match `guard`, without materializing them.
    pub fn matching_count(&self, guard: TemplatePair) -> usize {
        self.by_guard.get(&guard).map_or(0, Vec::len)
    }

    /// Iterates over all relations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ConfRel> {
        self.rels.iter().map(|r| &**r)
    }

    /// Clones the relations out, in insertion order (certificate emission).
    pub fn to_vec(&self) -> Vec<ConfRel> {
        self.rels.iter().map(|r| (**r).clone()).collect()
    }

    /// Number of distinct guards currently indexed.
    pub fn guard_count(&self) -> usize {
        self.by_guard.len()
    }
}

impl FromIterator<ConfRel> for RelationStore {
    fn from_iter<T: IntoIterator<Item = ConfRel>>(iter: T) -> Self {
        let mut store = RelationStore::new();
        for rel in iter {
            store.push(Arc::new(rel));
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confrel::{BitExpr, Pure, Side};
    use crate::templates::Template;
    use leapfrog_p4a::ast::{StateId, Target};

    fn guard(n: usize) -> TemplatePair {
        TemplatePair::new(
            Template {
                target: Target::State(StateId(0)),
                buf_len: n,
            },
            Template {
                target: Target::State(StateId(0)),
                buf_len: n,
            },
        )
    }

    fn rel(n: usize, phi: Pure) -> ConfRel {
        ConfRel {
            guard: guard(n),
            vars: vec![],
            phi,
        }
    }

    #[test]
    fn matching_returns_only_same_guard_in_insertion_order() {
        let mut s = RelationStore::new();
        let a = rel(1, Pure::ff());
        let b = rel(2, Pure::tt());
        let c = rel(
            1,
            Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        );
        s.push(Arc::new(a.clone()));
        s.push(Arc::new(b.clone()));
        s.push(Arc::new(c.clone()));
        assert_eq!(s.len(), 3);
        assert_eq!(s.guard_count(), 2);
        let m = s.matching(guard(1));
        assert_eq!(m.len(), 2);
        assert_eq!(*m[0], a);
        assert_eq!(*m[1], c);
        assert_eq!(s.matching_count(guard(2)), 1);
        assert_eq!(s.matching_count(guard(3)), 0);
        assert!(s.matching(guard(3)).is_empty());
    }

    #[test]
    fn matching_equals_linear_scan_filter() {
        // The index must agree with the historical linear filter on an
        // arbitrary interleaving of guards.
        let rels: Vec<ConfRel> = (0..20)
            .map(|i| rel(i % 4, if i % 2 == 0 { Pure::tt() } else { Pure::ff() }))
            .collect();
        let store: RelationStore = rels.iter().cloned().collect();
        for g in 0..5 {
            let linear: Vec<&ConfRel> = rels.iter().filter(|r| r.guard == guard(g)).collect();
            let indexed = store.matching(guard(g));
            assert_eq!(linear.len(), indexed.len());
            for (l, i) in linear.iter().zip(indexed.iter()) {
                assert_eq!(**l, **i);
            }
        }
    }

    #[test]
    fn to_vec_preserves_insertion_order() {
        let rels: Vec<ConfRel> = (0..7).map(|i| rel(i % 3, Pure::tt())).collect();
        let store: RelationStore = rels.iter().cloned().collect();
        assert_eq!(store.to_vec(), rels);
        let collected: Vec<ConfRel> = store.iter().cloned().collect();
        assert_eq!(collected, rels);
    }
}
