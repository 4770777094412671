//! The label index of a fragment: two facts of the graph that every
//! query of `lEval` starts from, kept rather than recomputed per query
//! — per label, the slots carrying it as one bit row in the layout of a
//! `MatchSet` row ([`crate::Fragment::label_row`]), and per local node,
//! its successors' labels as `(label, count)` runs
//! ([`crate::Fragment::successor_labels`]). Edge ops keep both in
//! `O(deg)`, and a bit per appended virtual slot (rows widen a word per
//! 64 slots). The runs follow their successor list in the pool, so
//! every edit of the successor lists goes through [`LabelIndex`].
//! `lEval` reads the index per node: its lookups are `#[inline]`.

use crate::span_lists::SpanLists;
use dgs_graph::Label;

/// The filler of [`LabelIndex`]'s runs behind a list's runs.
const NO_RUN: (Label, u16) = (Label(0), 0);

/// A fragment's label index, a fact of the graph that no query
/// changes.
#[derive(Clone, Debug, Default)]
pub(crate) struct LabelIndex {
    /// Per label, the slots carrying it as one bit row of `words`
    /// words — the layout of a `MatchSet` row over the fragment, so a
    /// query copies its candidate rows as they are. `words` is always
    /// `n_total.div_ceil(64)`; appended virtual slots widen the rows
    /// once per 64 slots.
    rows: Vec<u64>,
    words: usize,
    /// Parallel to the successor lists' pool: where a node's successor
    /// list lies, its successors' labels lie as `(label, count)` runs,
    /// ascending, then `NO_RUN` to the end of its span. A label with
    /// more than `u16::MAX` successors continues in further runs, the
    /// one not full first.
    runs: Vec<(Label, u16)>,
}

impl LabelIndex {
    /// The index of slots labelled `labels` whose successor lists are
    /// `succ`.
    pub(crate) fn build(labels: &[Label], succ: &SpanLists<u32>) -> Self {
        let words = labels.len().div_ceil(64);
        let n_labels = labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        let mut rows = vec![0; n_labels * words];
        for (idx, &l) in labels.iter().enumerate() {
            set_label_bit(&mut rows, words, l, idx as u32);
        }
        // Per list, a count per label seen, then one run per label in
        // label order (and one more per `u16::MAX` of it), the partial
        // run first.
        let mut runs = vec![NO_RUN; succ.pool_len()];
        let (mut count, mut seen) = (vec![0usize; n_labels], Vec::new());
        for idx in 0..succ.len() {
            for &w in succ.of(idx) {
                let l = labels[w as usize];
                if count[l.index()] == 0 {
                    seen.push(l);
                }
                count[l.index()] += 1;
            }
            seen.sort_unstable();
            let mut at = succ.range(idx).start;
            let full = usize::from(u16::MAX);
            for &l in &seen {
                let mut n = std::mem::take(&mut count[l.index()]);
                if n % full > 0 {
                    runs[at] = (l, (n % full) as u16);
                    at += 1;
                    n -= n % full;
                }
                while n > 0 {
                    runs[at] = (l, u16::MAX);
                    at += 1;
                    n -= full;
                }
            }
            seen.clear();
        }
        LabelIndex { rows, words, runs }
    }

    /// The slots carrying label `l` as a bit row; `None` when no slot's
    /// label is `l` or above.
    #[inline]
    pub(crate) fn row(&self, l: Label) -> Option<&[u64]> {
        let at = l.index() * self.words;
        self.rows.get(at..at + self.words)
    }

    /// The runs of list `idx` of `succ`, the lists this index counts.
    #[inline]
    pub(crate) fn runs(&self, succ: &SpanLists<u32>, idx: u32) -> &[(Label, u16)] {
        &self.runs[succ.range(idx as usize)]
    }

    /// Sets the bit of slot `idx`, labelled `l` and the last slot,
    /// widening every row by a word when `idx` starts one, as
    /// `MatchSet::grow_cols`.
    pub(crate) fn push_slot(&mut self, idx: u32, l: Label) {
        let (words, old) = ((idx as usize + 1).div_ceil(64), self.words.max(1));
        if words > self.words {
            let mut wide = vec![0; self.rows.len() / old * words];
            let rows = self.rows.chunks_exact(old);
            for (to, from) in wide.chunks_exact_mut(words).zip(rows) {
                to[..old].copy_from_slice(from);
            }
            (self.rows, self.words) = (wide, words);
        }
        set_label_bit(&mut self.rows, words, l, idx);
    }

    /// Adds `vi`, labelled `l`, to list `ui` of `succ` and counts `l`
    /// in `ui`'s runs; `false` if `vi` was there already.
    pub(crate) fn insert(&mut self, succ: &mut SpanLists<u32>, ui: u32, vi: u32, l: Label) -> bool {
        let was = succ.range(ui as usize);
        if !succ.insert(ui as usize, vi) {
            return false;
        }
        let now = succ.range(ui as usize);
        if self.runs.len() < succ.pool_len() {
            // The list moved to the end of the pool; its runs follow.
            self.runs.resize(succ.pool_len(), NO_RUN);
            self.runs.copy_within(was, now.start);
        }
        let runs = &mut self.runs[now];
        let (k, at) = find_run(runs, l);
        if at < k && runs[at].0 == l && runs[at].1 < u16::MAX {
            runs[at].1 += 1;
        } else {
            runs.copy_within(at..k, at + 1);
            runs[at] = (l, 1);
        }
        true
    }

    /// Drops `vi`, labelled `l`, from list `ui` of `succ` and uncounts
    /// `l` from `ui`'s runs; `false` if `vi` was not there.
    pub(crate) fn remove(&mut self, succ: &mut SpanLists<u32>, ui: u32, vi: u32, l: Label) -> bool {
        if !succ.remove(ui as usize, vi) {
            return false;
        }
        // The span still covers the removed successor's slot.
        let mut span = succ.range(ui as usize);
        span.end += 1;
        let runs = &mut self.runs[span];
        let (k, at) = find_run(runs, l);
        runs[at].1 -= 1;
        if runs[at].1 == 0 {
            runs.copy_within(at + 1..k, at);
            runs[k - 1] = NO_RUN;
        }
        true
    }

    /// Lays the runs of lists `succ` out as the lists lie once
    /// compacted, by [`SpanLists::compact`] or a copy: back to back in
    /// list order, each at its exact size.
    pub(crate) fn compact_along(&mut self, succ: &SpanLists<u32>) {
        let mut runs = Vec::with_capacity(succ.items());
        for idx in 0..succ.len() {
            runs.extend_from_slice(&self.runs[succ.range(idx)]);
        }
        self.runs = runs;
    }
}

/// In one list's runs: the number of runs, and where the first run of
/// `l` is or would go.
fn find_run(runs: &[(Label, u16)], l: Label) -> (usize, usize) {
    let k = runs.partition_point(|&(_, c)| c > 0);
    (k, runs[..k].partition_point(|&(rl, _)| rl < l))
}

/// Sets bit `idx` of label `l`'s row in `rows` (`words` words a row),
/// appending zero rows up to `l`'s first.
fn set_label_bit(rows: &mut Vec<u64>, words: usize, l: Label, idx: u32) {
    let at = l.index() * words;
    if rows.len() < at + words {
        rows.resize(at + words, 0);
    }
    rows[at + idx as usize / 64] |= 1 << (idx % 64);
}

#[cfg(test)]
mod tests {
    use crate::{EdgeOp, Fragmentation};
    use dgs_graph::{GraphBuilder, Label, NodeId};

    /// More than `u16::MAX` successors of one label continue in a
    /// second run, the partial one first; deltas across the boundary
    /// keep the runs a rebuild would lay out.
    #[test]
    fn a_label_past_u16_max_continues_in_a_second_run() {
        let n = 65_540;
        let mut b = GraphBuilder::new();
        b.add_node(Label(0));
        b.add_nodes(n - 2, Label(1));
        b.add_node(Label(2));
        for v in 1..n as u32 {
            b.add_edge(NodeId(0), NodeId(v));
        }
        let g = b.build();
        let mut f = Fragmentation::build(&g, &vec![0; n], 1);
        let full = u16::MAX;
        let runs = |f: &Fragmentation| -> Vec<(Label, u16)> {
            let slots = f.fragment(0).successor_labels(0);
            assert_eq!(slots.len(), f.fragment(0).successors(0).len());
            slots.iter().copied().filter(|&(_, c)| c > 0).collect()
        };
        let built = [(Label(1), 3), (Label(1), full), (Label(2), 1)];
        assert_eq!(runs(&f), built);
        let ops: Vec<EdgeOp> = (1..5)
            .map(|v| EdgeOp::Delete(NodeId(0), NodeId(v)))
            .collect();
        f.apply_delta(&ops[..3]);
        assert_eq!(runs(&f), [(Label(1), full), (Label(2), 1)]);
        f.apply_delta(&ops[3..]);
        assert_eq!(runs(&f), [(Label(1), full - 1), (Label(2), 1)]);
        let back: Vec<EdgeOp> = (1..5)
            .map(|v| EdgeOp::Insert(NodeId(0), NodeId(v)))
            .collect();
        f.apply_delta(&back[..1]);
        assert_eq!(runs(&f), [(Label(1), full), (Label(2), 1)]);
        f.apply_delta(&back[1..]);
        assert_eq!(runs(&f), built);
    }
}
