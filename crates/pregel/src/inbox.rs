//! What a vertex kernel receives: the [`Inbox`] view over its messages of
//! the previous superstep, and the [`Captured`] columns a gathered inbox
//! reads them from.
//!
//! After a push superstep, or a [`PullMode::Recomputed`] one the runtime
//! gathered eagerly, a receiver's messages sit in its own inbox slot and
//! the view is that slice. After a [`PullMode::Captured`] superstep they
//! sit in no inbox at all: each sender's payload is still in its worker's
//! [`Captured`] column, and the view walks the receiver's in-edges over
//! those columns, yielding references in place. One walker serves the
//! kernel, the checkpoint of such an inbox and the gather phase, so all
//! three see the same messages in the same order.
//!
//! [`PullMode::Captured`]: crate::PullMode::Captured
//! [`PullMode::Recomputed`]: crate::PullMode::Recomputed

use std::sync::RwLockReadGuard;

/// One worker's broadcast payloads from one [`PullMode::Captured`]
/// superstep, by local vertex: a payload column plus a presence bitset, so
/// the gather's random reads touch one bit and the payload itself rather
/// than an `Option` up to twice its size.
///
/// [`PullMode::Captured`]: crate::PullMode::Captured
pub(crate) struct Captured<M> {
    /// Meaningful only where `present` is set; other slots hold stale or
    /// filler payloads.
    payloads: Vec<M>,
    present: Vec<u64>,
    /// Vertices in the range.
    len: usize,
    /// Set bits in `present`, counted by [`settle`](Captured::settle) once
    /// the compute phase that set them ends. When it reaches `len` every
    /// vertex sent, and readers skip the per-edge presence test. Counting
    /// in [`set`](Captured::set) would write this struct once per vertex,
    /// and it shares a cache line with the other workers' columns.
    count: usize,
}

impl<M> Default for Captured<M> {
    fn default() -> Self {
        Captured {
            payloads: Vec::new(),
            present: Vec::new(),
            len: 0,
            count: 0,
        }
    }
}

impl<M: Clone> Captured<M> {
    /// Forgets every capture, for a range of `len` vertices; both
    /// allocations are kept.
    pub fn reset(&mut self, len: usize) {
        self.present.clear();
        self.present.resize(len.div_ceil(64), 0);
        self.len = len;
        self.count = 0;
    }

    pub fn set(&mut self, local: usize, m: M) {
        self.present[local / 64] |= 1u64 << (local % 64);
        match self.payloads.get_mut(local) {
            Some(slot) => *slot = m,
            // Slots skipped on the way take `m` as filler; their presence
            // bits stay clear.
            None => self.payloads.resize(local + 1, m),
        }
    }
}

impl<M> Captured<M> {
    /// Counts the captured payloads, once every one is set.
    pub fn settle(&mut self) {
        self.count = self.present.iter().map(|w| w.count_ones() as usize).sum();
    }

    /// Whether every vertex of the range captured a payload.
    #[inline]
    pub fn full(&self) -> bool {
        self.count == self.len
    }

    /// Whether local vertex `local`'s presence bit is set.
    #[inline]
    fn has(&self, local: usize) -> bool {
        self.present[local / 64] & (1u64 << (local % 64)) != 0
    }

    /// Local vertex `local`'s payload, if it captured one.
    #[inline]
    fn get(&self, local: usize) -> Option<&M> {
        (self.full() || self.has(local)).then(|| &self.payloads[local])
    }
}

/// The captured columns of one superstep, one per worker and read-locked,
/// with the worker range starts that map a sender id to its column.
pub(crate) struct Columns<'a, M> {
    pub columns: &'a [RwLockReadGuard<'a, Captured<M>>],
    /// Worker `w` owns ids `starts[w]..starts[w + 1]`.
    pub starts: &'a [u32],
    /// Every column is [`full`](Captured::full): each in-edge carries a
    /// message, so a receiver's count is its in-degree.
    pub full: bool,
}

impl<M> Clone for Columns<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Columns<'_, M> {}

impl<'a, M> Columns<'a, M> {
    /// Calls `f` with the sender worker and the payload of every message
    /// captured for the receiver whose in-sources are `sources`, in push
    /// delivery order. The one walker over captured payloads: compute,
    /// snapshots and the gather's reactivation count all read through it.
    ///
    /// `sources` lists in-edges in forward-edge-id order — sender
    /// ascending, adjacency position ascending — which is exactly the
    /// order a sender worker's broadcasts fill its push bucket in. Senders ascend, so the walk visits sender workers in ascending
    /// order, as delivery appends their buckets.
    #[inline]
    pub fn walk(self, sources: &'a [u32], mut f: impl FnMut(usize, &'a M)) {
        let Columns {
            columns, starts, ..
        } = self;
        let (mut rest, mut w) = (sources, 0);
        while let Some(&first) = rest.first() {
            // The segment of sender worker `w`: the run of sources below
            // its range's end. Workers only move forward.
            while first >= starts[w + 1] {
                w += 1;
            }
            let (lo, hi) = (starts[w], starts[w + 1]);
            let column: &'a Captured<M> = &columns[w];
            let mut taken = 0;
            if column.full() {
                for &src in rest {
                    if src >= hi {
                        break;
                    }
                    f(w, &column.payloads[(src - lo) as usize]);
                    taken += 1;
                }
            } else {
                for &src in rest {
                    if src >= hi {
                        break;
                    }
                    let local = (src - lo) as usize;
                    if column.has(local) {
                        f(w, &column.payloads[local]);
                    }
                    taken += 1;
                }
            }
            rest = &rest[taken..];
        }
    }
}

/// The messages sent to a vertex in the previous superstep, in push
/// delivery order: by sending vertex id, and a sender's parallel edges in
/// adjacency order. Whatever the schedule, the same messages arrive in
/// the same order, so every fold over them is bit-identical.
///
/// A small `Copy` view: either a slice of delivered messages, or a walk
/// over the receiver's in-edges that reads each sender's captured payload
/// in place. Read it with [`iter`](Inbox::iter) (or `for m in inbox`),
/// or, in a hot loop, with [`for_each`](Inbox::for_each), which folds a
/// captured inbox one sender worker at a time.
pub struct Inbox<'a, M>(Form<'a, M>);

enum Form<'a, M> {
    Delivered(&'a [M]),
    /// The receiver's in-sources, in forward-edge-id order, read through
    /// the captured columns.
    Gathered {
        sources: &'a [u32],
        columns: Columns<'a, M>,
    },
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<M> Clone for Form<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Form<'_, M> {}

impl<'a, M> From<&'a [M]> for Inbox<'a, M> {
    fn from(messages: &'a [M]) -> Self {
        Inbox(Form::Delivered(messages))
    }
}

impl<'a, M> Inbox<'a, M> {
    /// The captured payloads `sources` reach through `columns`.
    pub(crate) fn gathered(sources: &'a [u32], columns: Columns<'a, M>) -> Self {
        Inbox(Form::Gathered { sources, columns })
    }

    /// The messages in delivery order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter(match self.0 {
            Form::Delivered(messages) => IterForm::Delivered(messages.iter()),
            Form::Gathered { sources, columns } => IterForm::Gathered {
                sources,
                columns,
                worker: 0,
            },
        })
    }

    /// Calls `f` on every message in delivery order. Faster than
    /// [`iter`](Inbox::iter) over captured payloads: the presence test
    /// and the sender lookup move out of the per-message loop.
    #[inline]
    pub fn for_each(self, mut f: impl FnMut(&'a M)) {
        match self.0 {
            Form::Delivered(messages) => messages.iter().for_each(f),
            Form::Gathered { sources, columns } => columns.walk(sources, |_, m| f(m)),
        }
    }

    /// The number of messages. A walk over the in-edges for a captured
    /// inbox, unless every sender captured a payload.
    pub fn len(&self) -> usize {
        match self.0 {
            Form::Delivered(messages) => messages.len(),
            Form::Gathered { sources, columns } if columns.full => sources.len(),
            Form::Gathered { sources, columns } => {
                let mut n = 0;
                columns.walk(sources, |_, _| n += 1);
                n
            }
        }
    }

    /// Whether no message arrived.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match self.0 {
            Form::Delivered(messages) => messages.is_empty(),
            Form::Gathered { sources, columns } if columns.full => sources.is_empty(),
            Form::Gathered { .. } => self.iter().next().is_none(),
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = &'a M;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`], yielding references in delivery order.
pub struct InboxIter<'a, M>(IterForm<'a, M>);

enum IterForm<'a, M> {
    Delivered(std::slice::Iter<'a, M>),
    /// `sources` shrinks from the front; `worker` is the sender worker of
    /// the last source taken.
    Gathered {
        sources: &'a [u32],
        columns: Columns<'a, M>,
        worker: usize,
    },
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = &'a M;

    #[inline]
    fn next(&mut self) -> Option<&'a M> {
        match &mut self.0 {
            IterForm::Delivered(messages) => messages.next(),
            IterForm::Gathered {
                sources,
                columns,
                worker,
            } => loop {
                let Columns {
                    columns, starts, ..
                } = *columns;
                let (&src, rest) = sources.split_first()?;
                *sources = rest;
                while src >= starts[*worker + 1] {
                    *worker += 1;
                }
                let column: &'a Captured<M> = &columns[*worker];
                if let Some(m) = column.get((src - starts[*worker]) as usize) {
                    return Some(m);
                }
            },
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterForm::Delivered(messages) => messages.size_hint(),
            IterForm::Gathered { sources, .. } => (0, Some(sources.len())),
        }
    }
}
