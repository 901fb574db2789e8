//! What a vertex kernel receives: the [`Inbox`] view over its messages of
//! the previous superstep, the worker's flat [`Inboxes`] a delivered inbox
//! is a slice of, and the [`Captured`] columns a gathered inbox reads them
//! from.
//!
//! After a push superstep, or a [`PullMode::Recomputed`] one the runtime
//! gathered eagerly, a receiver's messages sit in its run of the worker's
//! [`Inboxes`] column and the view is that slice. After a
//! [`PullMode::Captured`] superstep they sit in no inbox at all: each
//! sender's payload is still in its worker's [`Captured`] column, and the
//! view walks the receiver's in-edges over those columns, yielding
//! references in place. One walker serves the
//! kernel, the checkpoint of such an inbox and the gather phase, so all
//! three see the same messages in the same order.
//!
//! [`PullMode::Captured`]: crate::PullMode::Captured
//! [`PullMode::Recomputed`]: crate::PullMode::Recomputed

use gm_ckpt::{ByteReader, CkptError, Persist};
use std::sync::RwLockReadGuard;

/// One worker's delivered messages, by local receiver: one message column
/// and per-receiver offsets, so receiver `v`'s inbox is
/// `messages[offsets[v]..offsets[v + 1]]`. A push delivery fills it by a
/// counting sort ([`scatter`](Inboxes::scatter)), a recomputed gather by
/// appending receivers in order ([`append`](Inboxes::append)), a resume by
/// decoding a snapshot ([`restore`](Inboxes::restore)). Compute reads it
/// before the next delivery or gather writes it, so one buffer serves.
pub(crate) struct Inboxes<M> {
    messages: Vec<M>,
    /// One more entry than receivers, ascending from 0.
    offsets: Vec<usize>,
}

impl<M> Inboxes<M> {
    /// `len` receivers, none with a message.
    pub fn empty(len: usize) -> Self {
        Inboxes {
            messages: Vec::new(),
            offsets: vec![0; len + 1],
        }
    }

    /// Receiver `local`'s messages, in delivery order.
    #[inline]
    pub fn get(&self, local: usize) -> &[M] {
        &self.messages[self.offsets[local]..self.offsets[local + 1]]
    }

    /// Every receiver's messages, back to back in receiver order.
    pub fn messages(&self) -> &[M] {
        &self.messages
    }

    /// The most messages one receiver holds.
    pub fn longest(&self) -> usize {
        (self.offsets.windows(2).map(|w| w[1] - w[0]))
            .max()
            .unwrap_or(0)
    }

    /// Forgets every receiver, keeping the column's allocation, before a
    /// gather [`append`](Inboxes::append)s them again.
    pub fn clear(&mut self) {
        self.messages.clear();
        self.offsets.clear();
        self.offsets.push(0);
    }

    /// Adds the next receiver, whose messages `fill` pushes onto the
    /// column, and returns how many it pushed.
    pub fn append(&mut self, fill: impl FnOnce(&mut Vec<M>)) -> usize {
        let start = self.messages.len();
        fill(&mut self.messages);
        self.offsets.push(self.messages.len());
        self.messages.len() - start
    }

    /// Replaces every inbox with the messages of `buckets`, which are for
    /// the receivers of `halted`, numbered from `base`, and returns how many
    /// halted receivers got one. The messages are moved, not cloned, by a
    /// stable counting sort on the receiver: each receiver's run keeps
    /// bucket order, then order within a bucket, just as pushing every
    /// message onto a per-receiver `Vec` would. The buckets are left empty
    /// with their capacity.
    pub fn scatter(&mut self, base: u32, buckets: &mut [Vec<(u32, M)>], halted: &[bool]) -> u32 {
        self.messages.clear();
        self.offsets.clear();
        self.offsets.resize(halted.len() + 1, 0);
        // `offsets[v + 1]` counts receiver `v`'s messages ...
        for bucket in buckets.iter() {
            for (dst, _) in bucket {
                self.offsets[(dst - base) as usize + 1] += 1;
            }
        }
        // ... then holds its start, which the scatter advances to its end:
        // the start of `v + 1`.
        let (mut total, mut reactivated) = (0, 0);
        for (slot, &halted) in self.offsets[1..].iter_mut().zip(halted) {
            let count = *slot;
            reactivated += u32::from(halted && count > 0);
            *slot = total;
            total += count;
        }
        self.messages.reserve(total);
        let column = &mut self.messages.spare_capacity_mut()[..total];
        for bucket in buckets.iter_mut() {
            for (dst, m) in bucket.drain(..) {
                let cursor = &mut self.offsets[(dst - base) as usize + 1];
                column[*cursor].write(m);
                *cursor += 1;
            }
        }
        // SAFETY: the counts came from these same buckets, so the cursor
        // of every receiver `v` wrote each slot from its start to the start
        // of `v + 1` exactly once, and together those runs cover
        // `0..total`. A panic before this line leaks the moved messages but
        // exposes none of the slots.
        unsafe { self.messages.set_len(total) };
        reactivated
    }

    /// Splits off receivers `at..`, renumbered from 0; `self` keeps the
    /// ones before `at`.
    pub fn split_off(&mut self, at: usize) -> Self {
        let first = self.offsets[at];
        let mut offsets = self.offsets.split_off(at);
        self.offsets.push(first);
        offsets.iter_mut().for_each(|o| *o -= first);
        Inboxes {
            messages: self.messages.split_off(first),
            offsets,
        }
    }
}

impl<M: Persist> Inboxes<M> {
    /// Encodes every receiver's inbox as `Vec<M>` persists it: its length,
    /// then its messages.
    pub fn persist(&self, out: &mut Vec<u8>) {
        for w in self.offsets.windows(2) {
            let inbox = &self.messages[w[0]..w[1]];
            (inbox.len() as u64).persist(out);
            inbox.iter().for_each(|m| m.persist(out));
        }
    }

    /// Decodes `len` receivers' inboxes as [`persist`](Inboxes::persist)
    /// encodes them.
    pub fn restore(r: &mut ByteReader<'_>, len: usize) -> Result<Self, CkptError> {
        let min_elem = usize::from(size_of::<M>() != 0);
        let mut inboxes = Inboxes {
            // One slot per `size_of::<M>()` bytes left: enough when messages
            // persist at their in-memory width, and never more memory than
            // those bytes.
            messages: Vec::with_capacity(r.remaining() / size_of::<M>().max(1)),
            offsets: Vec::with_capacity(len + 1),
        };
        inboxes.offsets.push(0);
        for _ in 0..len {
            for _ in 0..r.read_len(min_elem)? {
                inboxes.messages.push(M::restore(r)?);
            }
            inboxes.offsets.push(inboxes.messages.len());
        }
        Ok(inboxes)
    }
}

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

#[cfg(test)]
mod tests {
    use super::Inboxes;
    use gm_ckpt::ByteReader;
    use gm_graph::rng::{check, SplitMix64};

    /// Random buckets from `senders` sender workers to the receivers
    /// `base..base + len`, a quarter of them empty, each message distinct.
    /// Receivers outside `open` get nothing.
    fn buckets(
        rng: &mut SplitMix64,
        senders: usize,
        base: u32,
        open: &[u32],
    ) -> Vec<Vec<(u32, u64)>> {
        (0..senders)
            .map(|_| {
                let size = if open.is_empty() || rng.chance(0.25) {
                    0
                } else {
                    rng.below(60)
                };
                (0..size)
                    .map(|_| {
                        let local = open[rng.below(open.len() as u64) as usize];
                        (base + local, rng.next_u64())
                    })
                    .collect()
            })
            .collect()
    }

    /// The flat scatter against a per-vertex reference: each message
    /// pushed onto its receiver's own `Vec`, buckets in sender order.
    /// Every receiver's slice, the delivery order within it and the count
    /// of halted receivers woken must match, whatever an earlier delivery
    /// left in the inboxes. The persisted column restores, and splits at
    /// any receiver, into the same slices.
    #[test]
    fn scatter_matches_per_vertex_delivery() {
        check("scatter_matches_per_vertex_delivery", 256, |rng| {
            let base = rng.below(1000) as u32;
            let len = rng.below(40) as usize;
            let halted: Vec<bool> = (0..len).map(|_| rng.chance(0.5)).collect();
            let open: Vec<u32> = (0..len as u32).filter(|_| rng.chance(0.7)).collect();
            let senders = 1 + rng.below(6) as usize;
            let mut inboxes = Inboxes::empty(len);
            let everyone: Vec<u32> = (0..len as u32).collect();
            let mut earlier = buckets(rng, senders, base, &everyone);
            inboxes.scatter(base, &mut earlier, &halted);

            let mut sent = buckets(rng, senders, base, &open);
            let mut want = vec![Vec::new(); len];
            let mut woken = 0;
            for &(dst, m) in sent.iter().flatten() {
                let local = (dst - base) as usize;
                if halted[local] && want[local].is_empty() {
                    woken += 1;
                }
                want[local].push(m);
            }
            let capacities: Vec<usize> = sent.iter().map(Vec::capacity).collect();
            let reactivated = inboxes.scatter(base, &mut sent, &halted);
            for (local, want) in want.iter().enumerate() {
                assert_eq!(inboxes.get(local), want, "receiver {local}");
            }
            assert_eq!(inboxes.messages(), want.concat(), "column");
            assert_eq!(reactivated, woken, "reactivated");
            assert!(sent.iter().all(Vec::is_empty), "buckets drained");
            let kept: Vec<usize> = sent.iter().map(Vec::capacity).collect();
            assert_eq!(kept, capacities, "bucket capacity");

            let mut bytes = Vec::new();
            inboxes.persist(&mut bytes);
            let mut r = ByteReader::new(&bytes);
            let mut head = Inboxes::<u64>::restore(&mut r, len).expect("own bytes decode");
            r.expect_end().expect("no trailing bytes");
            let at = rng.below(len as u64 + 1) as usize;
            let tail = head.split_off(at);
            for (local, want) in want.iter().enumerate() {
                let got = if local < at {
                    head.get(local)
                } else {
                    tail.get(local - at)
                };
                assert_eq!(got, want, "restored receiver {local}, split at {at}");
            }
        });
    }
}
