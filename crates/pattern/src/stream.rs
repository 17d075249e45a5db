//! Galloping reads of the holistic twig join's input streams.
//!
//! The PathStack join consumes, per query node, a slice of structural IDs
//! sorted by `pre`, read forward from a head position. The original
//! formulation advances each head one element at a time; [`skip_to_pre`]
//! lets the join *gallop* — skip runs of elements that provably cannot
//! take part in any solution.

use amada_xml::StructuralId;

/// The first position at or after `pos` whose element has `pre >=
/// min_pre` (`items.len()` if none), found by an exponential probe
/// followed by a binary search of the bracketed range — `O(log d)` for a
/// skip of distance `d`, so short hops near the head stay cheap. Never
/// moves backwards.
pub(crate) fn skip_to_pre<T>(items: &[(StructuralId, T)], pos: usize, min_pre: u32) -> usize {
    let rest = &items[pos.min(items.len())..];
    match rest.first() {
        None => return items.len(),
        Some((sid, _)) if sid.pre >= min_pre => return pos,
        Some(_) => {}
    }
    // Gallop: double the probe until it lands at or past the target,
    // then binary-search the bracketed half-open range.
    let mut probe = 1usize;
    while probe < rest.len() && rest[probe].0.pre < min_pre {
        probe *= 2;
    }
    let lo = probe / 2;
    let hi = probe.min(rest.len());
    pos + lo + rest[lo..hi].partition_point(|(sid, _)| sid.pre < min_pre)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(pres: &[u32]) -> Vec<(StructuralId, ())> {
        pres.iter()
            .map(|&p| (StructuralId::new(p, p, 1), ()))
            .collect()
    }

    fn pre_at(items: &[(StructuralId, ())], pos: usize) -> Option<u32> {
        items.get(pos).map(|(sid, ())| sid.pre)
    }

    #[test]
    fn skip_lands_on_first_ge() {
        let items = stream(&[1, 3, 5, 8, 13, 21, 34, 55]);
        for target in 0..60 {
            let expect = items.iter().position(|(sid, _)| sid.pre >= target);
            let pos = skip_to_pre(&items, 0, target);
            assert_eq!(pos, expect.unwrap_or(items.len()), "target {target}");
        }
    }

    #[test]
    fn skip_never_moves_backwards() {
        let items = stream(&[2, 4, 6, 8, 10]);
        let pos = skip_to_pre(&items, 0, 7);
        assert_eq!(pre_at(&items, pos), Some(8));
        let pos = skip_to_pre(&items, pos, 3); // earlier target: no-op
        assert_eq!(pre_at(&items, pos), Some(8));
    }

    #[test]
    fn skip_past_end_exhausts() {
        let items = stream(&[1, 2, 3]);
        assert_eq!(skip_to_pre(&items, 0, 100), items.len());
        assert_eq!(skip_to_pre(&items, items.len(), 0), items.len());
    }

    #[test]
    fn skip_handles_duplicate_pres() {
        // The same document node can feed several query levels.
        let items = stream(&[1, 5, 5, 5, 9]);
        let pos = skip_to_pre(&items, 0, 5);
        assert_eq!(pre_at(&items, pos), Some(5));
        assert_eq!(pre_at(&items, pos + 1), Some(5));
        let pos = skip_to_pre(&items, pos + 1, 6);
        assert_eq!(pre_at(&items, pos), Some(9));
    }
}
