//! SpaceSaving (Metwally, Agrawal, El Abbadi 2005).
//!
//! The other classic counter-based heavy-hitters algorithm: when a new key
//! arrives and all `s` slots are taken, the *minimum-count* slot is evicted
//! and the newcomer inherits `min + 1` with error `min`. Like FREQUENT it
//! explicitly encodes the hot-key set, so it satisfies the paper's
//! requirement for DINC (§4.3); OPA ships it as an ablation comparator
//! (bench `ablation_monitor`).

use opa_common::SeededState;
use std::collections::HashMap;
use std::hash::Hash;

/// A SpaceSaving summary over keys of type `K`.
#[derive(Debug)]
pub struct SpaceSaving<K> {
    /// key → (count, overestimation error). Seeded hasher: the min-scan in
    /// [`SpaceSaving::offer`] iterates this map, so tie-breaks must not
    /// depend on a per-process random hash seed.
    counts: HashMap<K, (u64, u64), SeededState>,
    capacity: usize,
    offered: u64,
}

impl<K: Clone + Eq + Hash> SpaceSaving<K> {
    /// Creates a summary with `s` slots.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "slot count must be positive");
        SpaceSaving {
            counts: HashMap::with_capacity_and_hasher(s.min(1 << 20), SeededState::fixed()),
            capacity: s,
            offered: 0,
        }
    }

    /// Offers one item. Returns the evicted key, if the offer displaced one.
    pub fn offer(&mut self, key: K) -> Option<K> {
        self.offered += 1;
        if let Some(e) = self.counts.get_mut(&key) {
            e.0 += 1;
            return None;
        }
        if self.counts.len() < self.capacity {
            self.counts.insert(key, (1, 0));
            return None;
        }
        // Evict the minimum-count key. O(s) scan: SpaceSaving is the
        // ablation baseline, not the hot path, and `s` is modest in every
        // experiment that uses it.
        let (min_key, &(min_count, _)) = self
            .counts
            .iter()
            .min_by_key(|(_, &(c, _))| c)
            .expect("capacity > 0, map non-empty");
        let min_key = min_key.clone();
        self.counts.remove(&min_key);
        self.counts.insert(key, (min_count + 1, min_count));
        Some(min_key)
    }

    /// Estimated frequency (an over-estimate: `f ≤ f̂ ≤ f + M/s`).
    pub fn estimate(&self, key: &K) -> u64 {
        self.counts.get(key).map(|&(c, _)| c).unwrap_or(0)
    }

    /// Guaranteed over-estimation error for a monitored key.
    pub fn error(&self, key: &K) -> Option<u64> {
        self.counts.get(key).map(|&(_, e)| e)
    }

    /// Whether the key is currently monitored.
    pub fn contains(&self, key: &K) -> bool {
        self.counts.contains_key(key)
    }

    /// Total items offered (`M`).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Monitored keys with their (count, error) pairs, highest count first.
    pub fn top(&self) -> Vec<(K, u64, u64)> {
        let mut v: Vec<_> = self
            .counts
            .iter()
            .map(|(k, &(c, e))| (k.clone(), c, e))
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn hot_key_survives_cold_stream() {
        let mut ss = SpaceSaving::new(4);
        for i in 0..2000u64 {
            let _ = ss.offer(7);
            let _ = ss.offer(1000 + i);
        }
        assert!(ss.contains(&7));
        assert!(ss.estimate(&7) >= 2000);
    }

    #[test]
    fn estimates_are_overestimates_within_bound() {
        let mut stream = Vec::new();
        for k in 1..=40u64 {
            for _ in 0..(1200 / k) {
                stream.push(k);
            }
        }
        stream.sort_by_key(|&k| k.wrapping_mul(0x2545f4914f6cdd1d).rotate_left(9));
        let s = 12;
        let mut ss = SpaceSaving::new(s);
        for &k in &stream {
            let _ = ss.offer(k);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &stream {
            *truth.entry(k).or_default() += 1;
        }
        let m = stream.len() as u64;
        for (k, est, err) in ss.top() {
            let f = truth[&k];
            assert!(est >= f, "underestimate for {k}");
            assert!(est <= f + m / s as u64, "bound violated for {k}");
            assert!(est - err <= f, "error field not a valid bound for {k}");
        }
    }

    #[test]
    fn eviction_reports_displaced_key() {
        let mut ss = SpaceSaving::new(1);
        assert_eq!(ss.offer("a"), None);
        assert_eq!(ss.offer("b"), Some("a"));
        assert!(ss.contains(&"b"));
        assert_eq!(ss.estimate(&"b"), 2); // min(1) + 1
        assert_eq!(ss.error(&"b"), Some(1));
    }

    #[test]
    fn top_sorted_descending() {
        let mut ss = SpaceSaving::new(8);
        for _ in 0..5 {
            let _ = ss.offer("x");
        }
        for _ in 0..3 {
            let _ = ss.offer("y");
        }
        let _ = ss.offer("z");
        let top = ss.top();
        assert_eq!(top[0].0, "x");
        assert_eq!(top[1].0, "y");
        assert_eq!(top[2].0, "z");
        assert_eq!(ss.offered(), 9);
    }
}

/// SpaceSaving with attached per-key state — the drop-in alternative to
/// [`MisraGries`](crate::MisraGries) for DINC-hash's monitor, used by the
/// `ablation` experiments to test the paper's choice of FREQUENT.
///
/// Differences from FREQUENT: there is no decrement step; an unmonitored
/// arrival displaces the *minimum-count* occupant (inheriting `min + 1`),
/// so installs always succeed unless the eviction guard vetoes every
/// minimal occupant.
#[derive(Debug, Clone)]
pub struct SpaceSavingMonitor<K, S> {
    slots: Vec<(K, u64, u64, S)>, // key, count, t, state
    index: std::collections::HashMap<K, usize, SeededState>,
    capacity: usize,
    offered: u64,
}

/// Outcome of offering a tuple to a [`SpaceSavingMonitor`] — mirrors
/// [`MgOutcome`](crate::MgOutcome).
pub type SsOutcome<K, S> = crate::MgOutcome<K, S>;

impl<K: Clone + Eq + std::hash::Hash, S> SpaceSavingMonitor<K, S> {
    /// Creates a monitor with `s` slots.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "slot count must be positive");
        SpaceSavingMonitor {
            slots: Vec::with_capacity(s.min(1 << 20)),
            index: std::collections::HashMap::with_capacity_and_hasher(
                s.min(1 << 20),
                SeededState::fixed(),
            ),
            capacity: s,
            offered: 0,
        }
    }

    /// Capacity `s`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is monitored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total tuples offered (`M`).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers one tuple; `guard` can veto displacing a minimal occupant.
    pub fn offer_guarded(
        &mut self,
        key: K,
        state: S,
        cb: impl FnOnce(&K, &mut S, S),
        mut guard: impl FnMut(&K, &S) -> bool,
    ) -> SsOutcome<K, S> {
        use crate::MgOutcome;
        self.offered += 1;
        if let Some(&i) = self.index.get(&key) {
            let (ref k, ref mut count, ref mut t, ref mut s) = self.slots[i];
            cb(k, s, state);
            *count += 1;
            *t += 1;
            return MgOutcome::Combined;
        }
        if self.slots.len() < self.capacity {
            let i = self.slots.len();
            self.slots.push((key.clone(), 1, 1, state));
            self.index.insert(key, i);
            return MgOutcome::Installed { evicted: None };
        }
        // Scan minima in count order until the guard accepts one.
        let mut order: Vec<usize> = (0..self.slots.len()).collect();
        order.sort_by_key(|&i| self.slots[i].1);
        let chosen = order
            .into_iter()
            .find(|&i| guard(&self.slots[i].0, &self.slots[i].3));
        match chosen {
            Some(i) => {
                let min_count = self.slots[i].1;
                let old_t = self.slots[i].2;
                let (old_key, _, _, old_state) =
                    std::mem::replace(&mut self.slots[i], (key.clone(), min_count + 1, 1, state));
                self.index.remove(&old_key);
                self.index.insert(key, i);
                MgOutcome::Installed {
                    evicted: Some(crate::MgEntry {
                        key: old_key,
                        count: min_count,
                        t: old_t,
                        state: old_state,
                    }),
                }
            }
            None => MgOutcome::Rejected { key, state },
        }
    }

    /// Rebuilds a monitor from previously exported entries (the checkpoint
    /// counterpart of [`SpaceSavingMonitor::iter`]). Entries are installed
    /// in the given order, which preserves the stable minimum-scan
    /// tie-break and therefore the monitor's future eviction choices.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or more than `capacity` entries are given.
    pub fn restore(capacity: usize, offered: u64, entries: Vec<crate::MgEntry<K, S>>) -> Self {
        assert!(
            entries.len() <= capacity,
            "restore: {} entries exceed capacity {capacity}",
            entries.len()
        );
        let mut m = SpaceSavingMonitor::new(capacity);
        m.offered = offered;
        for e in entries {
            let i = m.slots.len();
            m.slots.push((e.key.clone(), e.count, e.t, e.state));
            m.index.insert(e.key, i);
        }
        m
    }

    /// Looks up a monitored key.
    pub fn get(&self, key: &K) -> Option<crate::MgEntry<K, S>>
    where
        S: Clone,
    {
        let &i = self.index.get(key)?;
        let (ref k, count, t, ref state) = self.slots[i];
        Some(crate::MgEntry {
            key: k.clone(),
            count,
            t,
            state: state.clone(),
        })
    }

    /// Iterates over the monitored entries in slot order.
    pub fn iter(&self) -> impl Iterator<Item = crate::MgEntry<K, S>> + '_
    where
        S: Clone,
    {
        self.slots
            .iter()
            .map(|(k, count, t, state)| crate::MgEntry {
                key: k.clone(),
                count: *count,
                t: *t,
                state: state.clone(),
            })
    }

    /// Consumes the monitor, returning its entries.
    pub fn drain(self) -> Vec<crate::MgEntry<K, S>> {
        self.slots
            .into_iter()
            .map(|(key, count, t, state)| crate::MgEntry {
                key,
                count,
                t,
                state,
            })
            .collect()
    }
}

#[cfg(test)]
mod monitor_tests {
    use super::*;
    use crate::MgOutcome;

    #[test]
    fn monitor_combines_and_installs() {
        let mut m: SpaceSavingMonitor<u64, u64> = SpaceSavingMonitor::new(2);
        assert!(matches!(
            m.offer_guarded(1, 1, |_, a, b| *a += b, |_, _| true),
            MgOutcome::Installed { evicted: None }
        ));
        assert!(matches!(
            m.offer_guarded(1, 1, |_, a, b| *a += b, |_, _| true),
            MgOutcome::Combined
        ));
        assert_eq!(m.len(), 1);
        assert_eq!(m.offered(), 2);
    }

    #[test]
    fn monitor_displaces_minimum() {
        let mut m: SpaceSavingMonitor<&str, ()> = SpaceSavingMonitor::new(2);
        for _ in 0..5 {
            let _ = m.offer_guarded("hot", (), |_, _, _| {}, |_, _| true);
        }
        let _ = m.offer_guarded("cold", (), |_, _, _| {}, |_, _| true);
        // Newcomer displaces "cold" (the minimum), never "hot".
        match m.offer_guarded("new", (), |_, _, _| {}, |_, _| true) {
            MgOutcome::Installed { evicted: Some(e) } => assert_eq!(e.key, "cold"),
            other => panic!("expected eviction of the minimum, got {other:?}"),
        }
        assert_eq!(m.drain().len(), 2);
    }

    #[test]
    fn monitor_guard_vetoes() {
        let mut m: SpaceSavingMonitor<u64, ()> = SpaceSavingMonitor::new(1);
        let _ = m.offer_guarded(1, (), |_, _, _| {}, |_, _| true);
        let out = m.offer_guarded(2, (), |_, _, _| {}, |_, _| false);
        assert!(matches!(out, MgOutcome::Rejected { key: 2, .. }));
        // Occupant unharmed.
        let out = m.offer_guarded(1, (), |_, _, _| {}, |_, _| false);
        assert!(matches!(out, MgOutcome::Combined));
    }
}
