//! The sorted tuple-id list an index delta stores for a key a write has
//! touched: a join value's tuples in a [`crate::HashIndex`], a word's tuples
//! at one location in the inverted index. (A base keeps its lists end to
//! end in one exact-size array instead; see [`crate::HashIndex`].)
//!
//! Most lists hold one tid or two (a near-unique join endpoint, a rare
//! word, a movie's two genres) and live inline, touching no heap. A list of
//! up to [`SEGMENT_TIDS`] tids is one exact-size `Arc<[TupleId]>`, and a
//! change builds the next one (a few kilobytes at most). A longer list —
//! "the" in 34,000 titles, a million rows under one parent — would make
//! every write that touches it copy all of it, so it is stored in
//! *segments*: a write copies the one segment it changes, whatever the
//! list's length, and the list lookups borrow is put together from the
//! segments on first demand and kept until the next write.
//!
//! The form is a function of the length alone: a list that shrinks to two
//! tids goes back inline and one that shrinks to a segment's worth goes back
//! to one allocation, so a list maintained through inserts and deletes
//! costs what one copied in from the same tids costs.

use crate::cow;
use crate::tuple::TupleId;
use std::sync::{Arc, OnceLock};

/// Tids per segment of a long list: what a write to it copies at most
/// (8 KB), and the longest list that is stored exactly as it is handed out.
pub const SEGMENT_TIDS: usize = 1024;

/// A sorted, deduplicated, non-empty list of tuple ids.
#[derive(Debug, Clone)]
pub struct TidList(Repr);

#[derive(Debug, Clone)]
enum Repr {
    /// One tid or two, in the room the other forms' pointers take anyway.
    Inline { len: u8, tids: [TupleId; 2] },
    /// Three to [`SEGMENT_TIDS`] tids, in one allocation.
    Slice(Arc<[TupleId]>),
    /// More than [`SEGMENT_TIDS`] tids.
    Long(Arc<Segmented>),
}

/// A list longer than one segment.
#[derive(Debug, Clone)]
struct Segmented {
    /// In tid order; none empty, none longer than [`SEGMENT_TIDS`].
    segments: Vec<Arc<Vec<TupleId>>>,
    /// The segments end to end, once a lookup has asked for them; a write
    /// starts it over.
    whole: OnceLock<Arc<[TupleId]>>,
}

/// Payload bytes of a long list's segment table.
fn segments_bytes(long: &Segmented) -> usize {
    std::mem::size_of_val(long.segments.as_slice())
}

impl Segmented {
    /// The segment `tid` is or would be stored in: the last that starts at
    /// or before it, or the first if it precedes them all.
    fn segment_of(&self, tid: TupleId) -> usize {
        self.segments
            .partition_point(|s| s[0] <= tid)
            .saturating_sub(1)
    }

    fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.segments.iter().flat_map(|s| s.iter().copied())
    }

    /// The list as one slice (made once per write to it, not once per call).
    fn whole(&self) -> &Arc<[TupleId]> {
        self.whole
            .get_or_init(|| self.iter().collect::<Vec<_>>().into())
    }
}

/// Where `tid` is in a sorted list, or where it goes. Tuple ids grow
/// monotonically, so the usual answer is "past the end" and is found first.
fn position(tids: &[TupleId], tid: TupleId) -> Result<usize, usize> {
    if tids.last() < Some(&tid) {
        Err(tids.len())
    } else {
        tids.binary_search(&tid)
    }
}

impl TidList {
    /// The list of one tid: no allocation.
    pub fn one(tid: TupleId) -> TidList {
        TidList::from_sorted(&[tid])
    }

    /// A non-empty list already sorted and deduplicated, copied once into
    /// the form its length calls for.
    pub fn from_sorted(tids: &[TupleId]) -> TidList {
        TidList(match *tids {
            [] => panic!("a tid list is never empty"),
            [tid] => Repr::Inline {
                len: 1,
                tids: [tid; 2],
            },
            [a, b] => Repr::Inline {
                len: 2,
                tids: [a, b],
            },
            _ if tids.len() <= SEGMENT_TIDS => Repr::Slice(tids.into()),
            _ => Repr::Long(Arc::new(Segmented {
                segments: tids
                    .chunks(SEGMENT_TIDS)
                    .map(|s| Arc::new(s.to_vec()))
                    .collect(),
                whole: OnceLock::new(),
            })),
        })
    }

    /// [`TidList::from_sorted`] of a list that is already the allocation a
    /// mid-sized one keeps.
    fn adopt(tids: Arc<[TupleId]>) -> TidList {
        if (3..=SEGMENT_TIDS).contains(&tids.len()) {
            TidList(Repr::Slice(tids))
        } else {
            TidList::from_sorted(&tids)
        }
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Slice(tids) => tids.len(),
            Repr::Long(long) => long.len(),
        }
    }

    /// Never: an index drops the entry of a list that would be.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every tid, in order, without putting a long list together.
    pub fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        let (tids, long) = match &self.0 {
            Repr::Long(long) => (&[][..], Some(long)),
            _ => (self.as_slice(), None),
        };
        let segments = long.into_iter().flat_map(|long| long.iter());
        tids.iter().copied().chain(segments)
    }

    pub fn contains(&self, tid: TupleId) -> bool {
        match &self.0 {
            Repr::Long(long) => long.segments[long.segment_of(tid)]
                .binary_search(&tid)
                .is_ok(),
            _ => self.as_slice().binary_search(&tid).is_ok(),
        }
    }

    /// The list as one slice, borrowed from the index.
    pub fn as_slice(&self) -> &[TupleId] {
        match &self.0 {
            Repr::Inline { len, tids } => &tids[..*len as usize],
            Repr::Slice(tids) => tids,
            Repr::Long(long) => long.whole(),
        }
    }

    /// Add `tid`, keeping the list sorted and deduplicated. Appends dominate
    /// because tuple ids grow monotonically: one past a full last segment
    /// opens the next, copying nothing.
    pub fn insert(&mut self, tid: TupleId) {
        let long = match &mut self.0 {
            Repr::Inline { len: 1, tids } => {
                if tids[0] != tid {
                    *self = TidList::from_sorted(&[tids[0].min(tid), tids[0].max(tid)]);
                }
                return;
            }
            Repr::Long(long) => long,
            _ => {
                let tids = self.as_slice();
                if let Err(at) = position(tids, tid) {
                    *self = TidList::adopt(cow::slice_with(tids, at, tid));
                }
                return;
            }
        };
        let slot = long.segment_of(tid);
        let Err(at) = position(&long.segments[slot], tid) else {
            return;
        };
        let long = cow::make_mut(long, segments_bytes);
        let is_last = slot + 1 == long.segments.len();
        if is_last && at == SEGMENT_TIDS {
            long.segments.push(Arc::new(vec![tid]));
        } else {
            let tids = cow::make_mut_vec(&mut long.segments[slot]);
            tids.insert(at, tid);
            if tids.len() > SEGMENT_TIDS {
                let upper = tids.split_off(tids.len() / 2);
                long.segments.insert(slot + 1, Arc::new(upper));
            }
        }
        long.whole = OnceLock::new();
    }

    /// Remove `tid` if present; `true` means it was the only tid and the
    /// entry should be dropped. A miss copies nothing.
    pub fn remove(&mut self, tid: TupleId) -> bool {
        let shorter = match &mut self.0 {
            Repr::Inline { len, tids } => {
                let Some(at) = tids[..*len as usize].iter().position(|t| *t == tid) else {
                    return false;
                };
                if *len == 1 {
                    return true;
                }
                *self = TidList::one(tids[1 - at]);
                return false;
            }
            Repr::Slice(tids) => match tids.binary_search(&tid) {
                Ok(at) => cow::slice_without(tids, at),
                Err(_) => return false,
            },
            Repr::Long(long) => {
                let slot = long.segment_of(tid);
                let Ok(at) = long.segments[slot].binary_search(&tid) else {
                    return false;
                };
                let long = cow::make_mut(long, segments_bytes);
                let tids = cow::make_mut_vec(&mut long.segments[slot]);
                tids.remove(at);
                if tids.is_empty() {
                    long.segments.remove(slot);
                }
                long.whole = OnceLock::new();
                if long.len() > SEGMENT_TIDS {
                    return false;
                }
                Arc::clone(long.whole())
            }
        };
        *self = TidList::adopt(shorter);
        false
    }

    /// Heap bytes behind this list, allocation headers included: nothing for
    /// an inline one.
    pub fn heap_bytes(&self) -> usize {
        let shared_slice = |tids: &[TupleId]| cow::arc_bytes(std::mem::size_of_val(tids));
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Slice(tids) => shared_slice(tids),
            Repr::Long(long) => {
                let table = long.segments.capacity() * std::mem::size_of::<Arc<Vec<TupleId>>>();
                let segments = long.segments.iter().map(|s| {
                    cow::arc_bytes(std::mem::size_of::<Vec<TupleId>>())
                        + cow::alloc_bytes(s.capacity() * std::mem::size_of::<TupleId>())
                });
                cow::arc_bytes(std::mem::size_of::<Segmented>())
                    + cow::alloc_bytes(table)
                    + segments.sum::<usize>()
                    + long.whole.get().map_or(0, |whole| shared_slice(whole))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tids(list: &TidList) -> Vec<u64> {
        list.iter().map(|t| t.0).collect()
    }

    fn segment_lens(list: &TidList) -> Vec<usize> {
        match &list.0 {
            Repr::Long(long) => long.segments.iter().map(|s| s.len()).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn the_list_is_three_words() {
        // One word of tag over the two of an `Arc<[TupleId]>`: the pointer
        // has one niche and there are two more forms, and packing them by
        // hand would take `unsafe`. The inline form fills the three words.
        assert_eq!(std::mem::size_of::<TidList>(), 24);
    }

    #[test]
    fn a_short_list_is_inline_or_one_allocation() {
        let mut list = TidList::one(TupleId(3));
        assert_eq!(list.heap_bytes(), 0);
        assert_eq!(list.as_slice(), [TupleId(3)]);
        list.insert(TupleId(9));
        assert_eq!((tids(&list), list.heap_bytes()), (vec![3, 9], 0));
        for t in [1, 5, 5, 9] {
            list.insert(TupleId(t));
        }
        assert_eq!(tids(&list), [1, 3, 5, 9]);
        let Repr::Slice(stored) = &list.0 else {
            panic!("four tids are one allocation");
        };
        assert!(std::ptr::eq(&stored[..], list.as_slice()));
        assert_eq!(list.heap_bytes(), cow::alloc_bytes(16 + 4 * 8));
        assert!(!list.remove(TupleId(4)));
        for t in [3, 1] {
            assert!(!list.remove(TupleId(t)));
        }
        // The last two left are inline again, as if they had never had
        // company, and so is the last one.
        assert!(matches!(list.0, Repr::Inline { len: 2, .. }));
        assert_eq!((tids(&list), list.heap_bytes()), (vec![5, 9], 0));
        assert!(!list.remove(TupleId(5)));
        assert!(matches!(list.0, Repr::Inline { len: 1, .. }));
        assert_eq!(list.as_slice(), [TupleId(9)]);
        assert!(!list.remove(TupleId(1)));
        assert!(list.remove(TupleId(9)), "emptied");
    }

    #[test]
    fn a_long_list_grows_shrinks_and_reads_like_a_short_one() {
        // Even tids, appended: full segments and a tail, as `build` cuts them.
        let n = 3 * SEGMENT_TIDS as u64 + 10;
        let mut list = TidList::one(TupleId(0));
        for t in 1..n {
            list.insert(TupleId(2 * t));
        }
        let evens: Vec<TupleId> = (0..n).map(|t| TupleId(2 * t)).collect();
        let built = TidList::from_sorted(&evens);
        assert_eq!(segment_lens(&list), segment_lens(&built));
        assert_eq!(
            segment_lens(&list),
            [SEGMENT_TIDS, SEGMENT_TIDS, SEGMENT_TIDS, 10]
        );
        assert_eq!(list.len(), n as usize);

        // The whole list is made once and kept until a write.
        let whole: Vec<TupleId> = list.as_slice().to_vec();
        assert!(std::ptr::eq(list.as_slice(), list.as_slice()));
        assert!(whole.iter().copied().eq(list.iter()));

        // Odd tids land inside segments and split the ones they overfill;
        // a snapshot taken before sees none of it.
        let before = list.clone();
        let mut expected: Vec<u64> = tids(&list);
        for t in [1, 3, 2 * SEGMENT_TIDS as u64 + 1, 2 * n + 1, 5, 5] {
            list.insert(TupleId(t));
            if !expected.contains(&t) {
                expected.push(t);
            }
        }
        expected.sort_unstable();
        assert_eq!(tids(&list), expected);
        assert!(segment_lens(&list)
            .iter()
            .all(|l| (1..=SEGMENT_TIDS).contains(l)));
        assert_eq!(list.as_slice().len(), expected.len(), "a write starts over");
        assert!(before.iter().eq(whole.iter().copied()));

        // Shrunk to a segment's worth it is one allocation again, exactly
        // what a build over the same tids makes; then inline; then gone.
        let all = tids(&list);
        let (keep, drop) = all.split_at(SEGMENT_TIDS);
        for t in drop[1..].iter().rev() {
            assert!(!list.remove(TupleId(*t)), "{t}");
        }
        assert_eq!(segment_lens(&list).iter().sum::<usize>(), SEGMENT_TIDS + 1);
        assert!(!list.remove(TupleId(drop[0])));
        assert!(matches!(list.0, Repr::Slice(_)));
        let kept: Vec<TupleId> = keep.iter().map(|t| TupleId(*t)).collect();
        assert_eq!(list.as_slice(), &kept[..]);
        assert_eq!(
            list.heap_bytes(),
            TidList::from_sorted(&kept).heap_bytes(),
            "a maintained list costs what a built one costs"
        );
        for t in &keep[1..] {
            assert!(!list.remove(TupleId(*t)));
        }
        assert!(!list.remove(TupleId(keep[0] + 1)), "a miss");
        assert!(list.remove(TupleId(keep[0])));
    }

    #[test]
    fn a_write_to_a_long_list_copies_one_segment() {
        let n = 8 * SEGMENT_TIDS as u64;
        let evens: Vec<TupleId> = (0..n).map(|t| TupleId(2 * t)).collect();
        let list = TidList::from_sorted(&evens);
        let mut copy = list.clone();
        let meter = cow::CopyMeter::new();
        copy.insert(TupleId(7));
        copy.remove(TupleId(2 * n - 2));
        copy.insert(TupleId(2 * n));
        // Misses and duplicates copy nothing.
        copy.insert(TupleId(7));
        copy.remove(TupleId(9));
        let copied = meter.copied();
        // The segment table once, and the first and the last segment.
        assert_eq!(copied.pieces, 3);
        assert!(copied.bytes <= (2 * SEGMENT_TIDS * 8 + 8 * 8) as u64);
        assert_eq!(list.len(), n as usize);
        assert_eq!(copy.len(), n as usize + 1);
    }

    proptest::proptest! {
        /// The list against a `BTreeSet` under random inserts and removes
        /// over a tid range small enough to cross inline ↔ one allocation ↔
        /// segments both ways, with every fifth state kept alive as a
        /// snapshot and re-read at the end.
        #[test]
        fn the_list_is_a_sorted_set_across_its_three_forms(
            ops in proptest::collection::vec((0u64..3 * SEGMENT_TIDS as u64, 0u8..5), 1..1500),
            start in 0usize..2 * SEGMENT_TIDS,
        ) {
            let mut model: BTreeSet<TupleId> = (0..=start as u64).map(TupleId).collect();
            let sorted: Vec<TupleId> = model.iter().copied().collect();
            let mut list = TidList::from_sorted(&sorted);
            let mut kept: Vec<(TidList, Vec<TupleId>)> = Vec::new();
            for (step, (tid, op)) in ops.into_iter().enumerate() {
                let tid = TupleId(tid);
                // Removes outnumber inserts so the list also shrinks.
                if op < 2 {
                    list.insert(tid);
                    model.insert(tid);
                } else if model.len() > 1 || !model.contains(&tid) {
                    proptest::prop_assert!(!list.remove(tid));
                    model.remove(&tid);
                } else {
                    proptest::prop_assert!(list.remove(tid), "the only tid");
                    list = TidList::one(tid);
                }
                let expected: Vec<TupleId> = model.iter().copied().collect();
                proptest::prop_assert_eq!(list.len(), expected.len());
                proptest::prop_assert!(list.iter().eq(expected.iter().copied()));
                proptest::prop_assert_eq!(list.contains(tid), model.contains(&tid));
                let canonical = TidList::from_sorted(&expected);
                proptest::prop_assert_eq!(
                    std::mem::discriminant(&list.0),
                    std::mem::discriminant(&canonical.0)
                );
                if step % 5 == 0 {
                    kept.push((list.clone(), expected));
                }
            }
            for (snapshot, expected) in kept {
                proptest::prop_assert_eq!(snapshot.as_slice(), &expected[..]);
            }
        }
    }
}
