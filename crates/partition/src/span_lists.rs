//! [`SpanLists`]: many short sorted lists in one pool, laid out to be
//! edited in place and copied whole.
//!
//! A fragment's successors, predecessors and in-node subscribers are
//! one `SpanLists` each, a vector of `(start, len, cap)` spans into a
//! single pool. [`SpanLists::push_list`] fills the pool in list order
//! with `cap == len` (plain CSR); a delta edits a list in place, and a
//! full list moves to the end of the pool with twice the room. The
//! span it leaves is dead and never reused; once dead spans and spare
//! room outnumber a pool's items, [`SpanLists::compact`] packs it in
//! place, and a copy packs it instead of copying it as it is, so a pool
//! stays at most twice its items.

/// Many short sorted lists in one buffer: list `i` owns
/// `pool[start..start + cap]`, whose first `len` entries are its
/// items. A copy is two `memcpy`s, not an allocation per list.
#[derive(Debug, Default)]
pub struct SpanLists<T> {
    /// `(start, len, cap)` per list.
    spans: Vec<(u32, u32, u32)>,
    pool: Vec<T>,
    /// The number of items over all lists.
    items: usize,
}

impl<T: Copy + Ord + Default> SpanLists<T> {
    /// No lists yet, with room for `lists` lists of `items` in all.
    pub(crate) fn with_capacity(lists: usize, items: usize) -> Self {
        SpanLists {
            spans: Vec::with_capacity(lists),
            pool: Vec::with_capacity(items),
            items: 0,
        }
    }

    /// The number of lists.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The items of list `idx`.
    #[inline]
    pub fn of(&self, idx: usize) -> &[T] {
        let (start, len, _) = self.spans[idx];
        &self.pool[start as usize..(start + len) as usize]
    }

    /// Makes `items`, sorted, the list at `at`, before the one there.
    pub fn insert_list(&mut self, at: usize, items: impl IntoIterator<Item = T>) {
        let start = self.pool.len();
        self.pool.extend(items);
        self.pool[start..].sort_unstable();
        let end = u32::try_from(self.pool.len()).expect("span pool overflow");
        let len = end - start as u32;
        self.spans.insert(at, (start as u32, len, len));
        self.items += len as usize;
    }

    /// Appends `items`, sorted, as a new last list.
    pub fn push_list(&mut self, items: impl IntoIterator<Item = T>) {
        self.insert_list(self.spans.len(), items);
    }

    /// Removes the list at `at`; the ones behind it move down.
    pub fn remove_list(&mut self, at: usize) {
        self.items -= self.spans.remove(at).1 as usize;
    }

    /// Appends empty lists until there are `lists` of them.
    pub fn grow_to(&mut self, lists: usize) {
        self.spans.resize(lists.max(self.spans.len()), (0, 0, 0));
    }

    /// Adds `item` to list `idx`; `false` if it was there already.
    pub fn insert(&mut self, idx: usize, item: T) -> bool {
        let Err(at) = self.of(idx).binary_search(&item) else {
            return false;
        };
        let (mut start, len, cap) = self.spans[idx];
        if len == cap {
            let moved = self.pool.len();
            let cap = (2 * cap).max(2);
            self.pool.resize(moved + cap as usize, T::default());
            self.pool
                .copy_within(start as usize..(start + len) as usize, moved);
            start = u32::try_from(moved).expect("span pool overflow");
            self.spans[idx] = (start, len, cap);
        }
        let (lo, hi) = (start as usize + at, (start + len) as usize);
        self.pool.copy_within(lo..hi, lo + 1);
        self.pool[lo] = item;
        self.spans[idx].1 += 1;
        self.items += 1;
        true
    }

    /// Drops `item` from list `idx`; `false` if it was not there.
    pub fn remove(&mut self, idx: usize, item: T) -> bool {
        let Ok(at) = self.of(idx).binary_search(&item) else {
            return false;
        };
        let (start, len, _) = self.spans[idx];
        let (lo, hi) = (start as usize + at, (start + len) as usize);
        self.pool.copy_within(lo + 1..hi, lo);
        self.spans[idx].1 -= 1;
        self.items -= 1;
        true
    }

    /// The number of items over all lists.
    #[inline]
    pub(crate) fn items(&self) -> usize {
        self.items
    }

    /// Where list `idx` lies in the pool: `start..start + len`.
    #[inline]
    pub(crate) fn range(&self, idx: usize) -> std::ops::Range<usize> {
        let (start, len, _) = self.spans[idx];
        start as usize..(start + len) as usize
    }
}

impl SpanLists<u32> {
    /// The reverse lists, `lists` of them: list `t` holds, ascending,
    /// every `i` whose list holds `t`. Laid out as
    /// [`SpanLists::push_list`] would, `cap == len`.
    pub(crate) fn transpose(&self, lists: usize) -> Self {
        let mut len = vec![0u32; lists];
        for i in 0..self.len() {
            for &t in self.of(i) {
                len[t as usize] += 1;
            }
        }
        let mut end = 0u32;
        let spans = len.iter().map(|&len| {
            end += len;
            (end - len, len, len)
        });
        let mut rev = SpanLists {
            spans: spans.collect(),
            pool: vec![0; end as usize],
            items: end as usize,
        };
        // Filled from the back by `i` descending, which leaves every
        // list sorted and `len` at zero.
        for i in (0..self.len()).rev() {
            for &t in self.of(i) {
                len[t as usize] -= 1;
                let at = rev.spans[t as usize].0 + len[t as usize];
                rev.pool[at as usize] = i as u32;
            }
        }
        rev
    }
}

impl<T: Clone> SpanLists<T> {
    /// The pool's length: items, dead spans and spare room.
    #[inline]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Dead spans and spare room outnumber the items (the pool is more
    /// than twice them): the one rule for when a pool is compacted.
    pub(crate) fn is_loose(&self) -> bool {
        self.pool.len() > 2 * self.items
    }

    /// Compacts the pool in place by the rule a copy applies
    /// ([`Clone::clone`]): once dead spans and spare room outnumber the
    /// items. Lists edited in place batch after batch stay at most
    /// twice their items, as copied ones do.
    pub fn compact(&mut self) {
        if self.is_loose() {
            self.pool = packed(&mut self.spans, &self.pool, self.items);
        }
    }
}

/// The `items` items of the lists `spans` point at in `pool`, in a pool
/// of their own at exactly their size: every list back to back at its
/// exact size, as [`SpanLists::push_list`] lays them out, and `spans`
/// pointing at them there.
fn packed<T: Clone>(spans: &mut [(u32, u32, u32)], pool: &[T], items: usize) -> Vec<T> {
    let mut packed = Vec::with_capacity(items);
    for span in spans {
        let (start, len, _) = *span;
        *span = (packed.len() as u32, len, len);
        packed.extend_from_slice(&pool[start as usize..(start + len) as usize]);
    }
    packed
}

impl<T: Clone> Clone for SpanLists<T> {
    /// Two `memcpy`s while the pool holds at least half items; once
    /// dead spans and spare room outnumber the items, the copy
    /// compacts instead, into a pool of its own at the compacted size.
    /// Either way the copy's pool is at most twice its items.
    fn clone(&self) -> Self {
        let mut spans = self.spans.clone();
        let pool = if self.is_loose() {
            packed(&mut spans, &self.pool, self.items)
        } else {
            self.pool.clone()
        };
        SpanLists {
            spans,
            pool,
            items: self.items,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every mutation against a `Vec<Vec<u32>>` model: lists that fill
    /// their span and move, lists that empty, lists inserted into and
    /// removed from the middle, a span vector that grows.
    #[test]
    fn span_lists_follow_a_nested_vec_model() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % bound as u64) as usize
        };
        let mut lists = SpanLists::<u32>::default();
        let mut model: Vec<Vec<u32>> = Vec::new();
        let (mut moved, mut emptied) = (0, 0);
        for step in 0..20_000 {
            match next(16) {
                0 => {
                    let items: Vec<u32> = (0..next(4) as u32).map(|i| 2 * i).collect();
                    lists.push_list(items.iter().copied());
                    model.push(items);
                }
                1 => {
                    let at = next(model.len() + 1);
                    lists.insert_list(at, [5, 7]);
                    model.insert(at, vec![5, 7]);
                }
                2 if model.len() > 8 => {
                    let at = next(model.len());
                    lists.remove_list(at);
                    model.remove(at);
                }
                3 => {
                    let to = model.len() + next(3);
                    lists.grow_to(to);
                    model.resize(to, Vec::new());
                }
                op if !model.is_empty() => {
                    // A few lists take the traffic, in turns of mostly
                    // inserts and mostly removals: they grow through
                    // several moves and drain again.
                    let idx = next(model.len().min(12));
                    let item = next(8) as u32;
                    let at = model[idx].binary_search(&item);
                    if (op == 4) == (step / 1000 % 2 == 1) {
                        let pool_before = lists.pool.len();
                        assert_eq!(lists.insert(idx, item), at.is_err());
                        moved += usize::from(lists.pool.len() > pool_before);
                        if let Err(at) = at {
                            model[idx].insert(at, item);
                        }
                    } else {
                        assert_eq!(lists.remove(idx, item), at.is_ok());
                        if let Ok(at) = at {
                            model[idx].remove(at);
                            emptied += usize::from(model[idx].is_empty());
                        }
                    }
                }
                _ => {}
            }
            assert_eq!(lists.spans.len(), model.len());
            assert_eq!(lists.items, model.iter().map(Vec::len).sum::<usize>());
            if step % 64 == 0 || step > 19_900 {
                for (idx, list) in model.iter().enumerate() {
                    assert_eq!(lists.of(idx), &list[..], "list {idx} at step {step}");
                }
                // A copy, and a copy over something else, read the same.
                let copy = lists.clone();
                let mut over = SpanLists::<u32>::default();
                over.push_list([1, 2, 3]);
                over.clone_from(&lists);
                for (idx, list) in model.iter().enumerate() {
                    assert_eq!((copy.of(idx), over.of(idx)), (&list[..], &list[..]));
                }
            }
        }
        assert!(
            moved > 50 && emptied > 50,
            "{moved} moves, {emptied} drained"
        );
    }

    /// Lists that grew through several moves and drained again leave
    /// a pool that is mostly dead spans and spare room; the copy a
    /// generation swap makes of it holds at most twice the items.
    #[test]
    fn clone_from_compacts_a_mostly_dead_pool() {
        let mut lists = SpanLists::<u32>::default();
        for idx in 0..100 {
            lists.push_list([]);
            for item in 0..40 {
                lists.insert(idx, item);
            }
            for item in 5..40 {
                lists.remove(idx, item);
            }
        }
        let items = 100 * 5;
        assert!(lists.pool.len() > 20 * items, "{} pooled", lists.pool.len());
        let mut over = SpanLists::<u32>::default();
        over.push_list(0..5_000);
        over.clone_from(&lists);
        for copy in [over, lists.clone()] {
            assert!(copy.pool.len() <= 2 * items, "{} pooled", copy.pool.len());
            assert_eq!(copy.items, items);
            for idx in 0..100 {
                assert_eq!(copy.of(idx), lists.of(idx));
            }
        }
        // A pool at least half items is copied as it is.
        let mut dense = SpanLists::<u32>::default();
        dense.push_list([1, 2, 3]);
        dense.push_list([7, 8, 9]);
        dense.insert(0, 4);
        assert_eq!((dense.pool.len(), dense.clone().pool.len()), (12, 12));
    }

    /// `compact` is the same rule in place: a mostly dead pool shrinks
    /// to its items and keeps every list, a dense one is left alone.
    #[test]
    fn compact_applies_the_copy_rule_in_place() {
        let mut lists = SpanLists::<u32>::default();
        for idx in 0..50 {
            lists.push_list([]);
            for item in 0..20 {
                lists.insert(idx, item);
            }
            for item in 3..20 {
                lists.remove(idx, item);
            }
        }
        let before: Vec<Vec<u32>> = (0..50).map(|idx| lists.of(idx).to_vec()).collect();
        lists.compact();
        assert_eq!((lists.pool.len(), lists.items), (50 * 3, 50 * 3));
        for (idx, items) in before.iter().enumerate() {
            assert_eq!(lists.of(idx), items.as_slice());
        }
        // Compacted lists take edits like built ones.
        assert!(lists.insert(7, 99) && lists.remove(7, 0));
        assert_eq!(lists.of(7), &[1, 2, 99]);
        let mut dense = SpanLists::<u32>::default();
        dense.push_list([1, 2, 3]);
        dense.push_list([7, 8, 9]);
        dense.insert(0, 4);
        dense.compact();
        assert_eq!(dense.pool.len(), 12);
    }
}
