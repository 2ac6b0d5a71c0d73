//! One location's posting list, as the index stores it.
//!
//! Lookups hand out `Arc<Vec<TupleId>>`, and for all but a handful of words
//! that is also what is stored: adding a tuple to such a list copies it once
//! (while a snapshot still shares it), a few kilobytes. A word nearly every
//! row of a column contains — "the" in 34,000 titles — would make every
//! write that touches it copy the whole column's worth of tids, so a list
//! longer than [`SEGMENT_TIDS`] is stored in *segments*: a write copies the
//! one segment it changes, whatever the list's length, and the list lookups
//! hand out is put together from the segments on first demand and kept until
//! the next write.

use precis_storage::cow;
use precis_storage::TupleId;
use std::sync::{Arc, OnceLock};

/// Tids per segment of a long list: what a write to it copies at most
/// (8 KB), and the longest list that is stored exactly as it is handed out.
pub(crate) const SEGMENT_TIDS: usize = 1024;

/// A sorted, deduplicated, non-empty list of tuple ids.
#[derive(Debug, Clone)]
pub(crate) enum TidList {
    /// Up to [`SEGMENT_TIDS`] tids: the very list lookups share.
    Short(Arc<Vec<TupleId>>),
    Long(Arc<Segmented>),
}

/// A list longer than one segment.
#[derive(Debug, Clone)]
pub(crate) struct Segmented {
    /// In tid order; none empty, none longer than [`SEGMENT_TIDS`].
    segments: Vec<Arc<Vec<TupleId>>>,
    /// The segments end to end, once a lookup has asked for them; a write
    /// starts it over.
    whole: OnceLock<Arc<Vec<TupleId>>>,
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
}

impl TidList {
    /// A list already sorted and deduplicated, as `build` produces them.
    pub(crate) fn from_sorted(tids: Vec<TupleId>) -> TidList {
        if tids.len() <= SEGMENT_TIDS {
            return TidList::Short(Arc::new(tids));
        }
        TidList::Long(Arc::new(Segmented {
            segments: tids
                .chunks(SEGMENT_TIDS)
                .map(|s| Arc::new(s.to_vec()))
                .collect(),
            whole: OnceLock::new(),
        }))
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            TidList::Short(tids) => tids.len(),
            TidList::Long(long) => long.segments.iter().map(|s| s.len()).sum(),
        }
    }

    /// Every tid, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        let segments = match self {
            TidList::Short(tids) => std::slice::from_ref(tids),
            TidList::Long(long) => &long.segments[..],
        };
        segments.iter().flat_map(|s| s.iter().copied())
    }

    /// The list as one shared vector: the stored one, or the segments put
    /// together (once per write to the list, not once per call).
    pub(crate) fn shared(&self) -> Arc<Vec<TupleId>> {
        match self {
            TidList::Short(tids) => Arc::clone(tids),
            TidList::Long(long) => Arc::clone(long.whole.get_or_init(|| {
                let mut whole = Vec::with_capacity(self.len());
                whole.extend(self.iter());
                Arc::new(whole)
            })),
        }
    }

    /// Add `tid`, keeping the list sorted and deduplicated. Appends dominate
    /// because tuple ids grow monotonically: one past a full last segment
    /// opens the next, copying nothing.
    pub(crate) fn insert(&mut self, tid: TupleId) {
        let long = match self {
            TidList::Short(tids) => {
                if let Err(at) = tids.binary_search(&tid) {
                    if tids.len() < SEGMENT_TIDS {
                        cow::make_mut_vec(tids).insert(at, tid);
                    } else {
                        let mut all = Vec::with_capacity(tids.len() + 1);
                        all.extend_from_slice(tids);
                        all.insert(at, tid);
                        *self = TidList::from_sorted(all);
                    }
                }
                return;
            }
            TidList::Long(long) => cow::make_mut(long, segments_bytes),
        };
        let slot = long.segment_of(tid);
        let is_last = slot + 1 == long.segments.len();
        let segment = &mut long.segments[slot];
        if segment.last() < Some(&tid) {
            if is_last && segment.len() >= SEGMENT_TIDS {
                long.segments.push(Arc::new(vec![tid]));
            } else {
                cow::make_mut_vec(segment).push(tid);
            }
        } else if let Err(at) = segment.binary_search(&tid) {
            let tids = cow::make_mut_vec(segment);
            tids.insert(at, tid);
            if tids.len() > SEGMENT_TIDS {
                let upper = tids.split_off(tids.len() / 2);
                long.segments.insert(slot + 1, Arc::new(upper));
            }
        } else {
            return;
        }
        long.whole = OnceLock::new();
    }

    /// Remove `tid` if present; `true` means the list is now empty and the
    /// entry should be dropped. A miss copies nothing.
    pub(crate) fn remove(&mut self, tid: TupleId) -> bool {
        match self {
            TidList::Short(tids) => {
                if let Ok(at) = tids.binary_search(&tid) {
                    cow::make_mut_vec(tids).remove(at);
                }
                tids.is_empty()
            }
            TidList::Long(long) => {
                let slot = long.segment_of(tid);
                if let Ok(at) = long.segments[slot].binary_search(&tid) {
                    let long = cow::make_mut(long, segments_bytes);
                    let tids = cow::make_mut_vec(&mut long.segments[slot]);
                    tids.remove(at);
                    if tids.is_empty() {
                        long.segments.remove(slot);
                    }
                    long.whole = OnceLock::new();
                }
                long.segments.is_empty()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tids(list: &TidList) -> Vec<u64> {
        list.iter().map(|t| t.0).collect()
    }

    #[test]
    fn a_short_list_is_the_list_lookups_share() {
        let mut list = TidList::from_sorted(vec![TupleId(3)]);
        for t in [9, 1, 5, 5, 9] {
            list.insert(TupleId(t));
        }
        assert_eq!(tids(&list), [1, 3, 5, 9]);
        let TidList::Short(stored) = &list else {
            panic!("four tids are one segment");
        };
        assert!(Arc::ptr_eq(stored, &list.shared()));
        assert!(!list.remove(TupleId(4)));
        assert!(!list.remove(TupleId(3)));
        for t in [1, 5] {
            assert!(!list.remove(TupleId(t)));
        }
        assert!(list.remove(TupleId(9)), "emptied");
    }

    #[test]
    fn a_long_list_grows_shrinks_and_reads_like_a_short_one() {
        // Even tids, appended: full segments and a tail, as `build` cuts them.
        let n = 3 * SEGMENT_TIDS as u64 + 10;
        let mut list = TidList::from_sorted(vec![TupleId(0)]);
        for t in 1..n {
            list.insert(TupleId(2 * t));
        }
        let built = TidList::from_sorted((0..n).map(|t| TupleId(2 * t)).collect());
        let lens = |l: &TidList| match l {
            TidList::Long(long) => long.segments.iter().map(|s| s.len()).collect(),
            TidList::Short(_) => Vec::new(),
        };
        assert_eq!(lens(&list), lens(&built));
        assert_eq!(lens(&list), [SEGMENT_TIDS, SEGMENT_TIDS, SEGMENT_TIDS, 10]);
        assert_eq!(list.len(), n as usize);

        // The shared form is made once and kept until a write.
        let whole = list.shared();
        assert!(Arc::ptr_eq(&whole, &list.shared()));
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
        assert!(lens(&list).iter().all(|l| (1..=SEGMENT_TIDS).contains(l)));
        assert!(!Arc::ptr_eq(&whole, &list.shared()), "a write starts over");
        assert_eq!(list.shared().len(), expected.len());
        assert!(before.iter().eq(whole.iter().copied()));

        // Removing a whole segment's tids drops the segment; removing all
        // of them empties the list.
        let all = tids(&list);
        let (last, rest) = all.split_last().unwrap();
        for t in rest {
            assert!(!list.remove(TupleId(*t)), "{t}");
        }
        assert_eq!(lens(&list), [1]);
        assert!(!list.remove(TupleId(last + 1)), "a miss");
        assert!(list.remove(TupleId(*last)));
    }

    #[test]
    fn a_write_to_a_long_list_copies_one_segment() {
        let n = 8 * SEGMENT_TIDS as u64;
        let list = TidList::from_sorted((0..n).map(|t| TupleId(2 * t)).collect());
        let mut copy = list.clone();
        let meter = cow::CopyMeter::new();
        copy.insert(TupleId(7));
        copy.remove(TupleId(2 * n - 2));
        copy.insert(TupleId(2 * n));
        let copied = meter.copied();
        // The segment table once, and the first and the last segment.
        assert_eq!(copied.pieces, 3);
        assert!(copied.bytes <= (2 * SEGMENT_TIDS * 8 + 8 * 8) as u64);
        assert_eq!(list.len(), n as usize);
        assert_eq!(copy.len(), n as usize + 1);
    }
}
