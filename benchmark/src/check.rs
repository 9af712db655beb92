//! The correctness gate: answers sampled during a window, checked after it.

use crate::config::{K, SAMPLE_EVERY};
use silc_network::{SpatialNetwork, VertexId};
use silc_query::verify::brute_force_knn;
use silc_query::ObjectSet;

/// One kept answer: fixed size, so keeping it never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sample {
    pub query: u32,
    pub len: u8,
    /// Routed answers' certification flag (`true` for exact algorithms).
    pub complete: bool,
    /// `(object id, interval lo bits, interval hi bits)` in answer order.
    pub neighbors: [(u32, u64, u64); K],
}

impl Sample {
    pub fn fill(
        &mut self,
        query: VertexId,
        complete: bool,
        neighbors: impl Iterator<Item = (u32, f64, f64)>,
    ) {
        *self = Sample { query: query.0, complete, ..Sample::default() };
        for (slot, (object, lo, hi)) in self.neighbors.iter_mut().zip(neighbors) {
            *slot = (object, lo.to_bits(), hi.to_bits());
            self.len += 1;
        }
    }
}

/// Keeps every [`SAMPLE_EVERY`]-th answer, up to a preallocated capacity.
pub struct Sampler {
    samples: Vec<Sample>,
    capacity: usize,
}

impl Sampler {
    pub fn new(capacity: usize) -> Self {
        Sampler { samples: Vec::with_capacity(capacity), capacity }
    }

    /// The slot to copy query number `i`'s answer into, if it is one to keep.
    pub fn slot(&mut self, i: usize) -> Option<&mut Sample> {
        if !i.is_multiple_of(SAMPLE_EVERY) || self.samples.len() == self.capacity {
            return None;
        }
        self.samples.push(Sample::default());
        self.samples.last_mut()
    }

    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// How many answers of `got` are not bit-identical to the reference answer
/// for the same query (the two samplers kept the same query numbers).
pub fn count_differing(reference: &[Sample], got: &[Sample], what: &str) -> u64 {
    let differing = reference.iter().zip(got).filter(|(a, b)| a != b).count() as u64
        + reference.len().abs_diff(got.len()) as u64;
    if differing > 0 {
        eprintln!("# {differing} {what}");
    }
    differing
}

/// Why an answer is wrong, if it is: checked against one full Dijkstra.
/// An answer is right when it names `k` distinct objects, every true
/// distance lies inside its reported interval, no object outside the answer
/// is strictly nearer than one inside it (ties may resolve either way), and
/// — for routed answers — the router certified it.
pub fn wrong_answer(
    network: &SpatialNetwork,
    objects: &ObjectSet,
    sample: &Sample,
) -> Option<String> {
    let k = K.min(objects.len());
    if sample.len as usize != k {
        return Some(format!("{} neighbours, expected {k}", sample.len));
    }
    if !sample.complete {
        return Some("not certified complete".into());
    }
    let truth = brute_force_knn(network, objects, VertexId(sample.query), objects.len());
    let mut dist = vec![f64::NAN; objects.len()];
    for &(o, d) in &truth {
        dist[o.index()] = d;
    }
    let kth = truth[k - 1].1;
    let reported = &sample.neighbors[..k];
    for (i, &(object, lo, hi)) in reported.iter().enumerate() {
        if reported[..i].iter().any(|r| r.0 == object) {
            return Some(format!("object {object} reported twice"));
        }
        let d = dist[object as usize];
        let (lo, hi) = (f64::from_bits(lo), f64::from_bits(hi));
        let tol = 1e-9 * (1.0 + d.abs());
        // NaN-safe: an unreachable or unknown object fails the first test.
        if !(lo - tol <= d && d <= hi + tol) {
            return Some(format!("object {object}: distance {d} outside [{lo}, {hi}]"));
        }
        if d > kth + tol {
            return Some(format!("object {object} at {d} is beyond the k-th distance {kth}"));
        }
    }
    None
}

/// Number of wrong answers among `samples`; the first few are explained on
/// stderr.
pub fn count_wrong(network: &SpatialNetwork, objects: &ObjectSet, samples: &[Sample]) -> usize {
    let mut wrong = 0;
    for s in samples {
        if let Some(why) = wrong_answer(network, objects, s) {
            wrong += 1;
            if wrong <= 5 {
                eprintln!("# WRONG ANSWER for query vertex {}: {why}", s.query);
            }
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use silc::{BuildConfig, SilcIndex};
    use silc_query::{knn, KnnVariant};
    use std::sync::Arc;

    fn answer(index: &SilcIndex, objects: &ObjectSet, q: u32) -> Sample {
        let r = knn(index, objects, VertexId(q), K, KnnVariant::Basic);
        let mut s = Sample::default();
        s.fill(
            VertexId(q),
            true,
            r.neighbors.iter().map(|n| (n.object.0, n.interval.lo, n.interval.hi)),
        );
        s
    }

    #[test]
    fn right_answers_pass_and_each_kind_of_damage_is_caught() {
        let net = Arc::new(inputs::network(300, 4));
        let objects = inputs::objects(&net, 4);
        let index =
            SilcIndex::build(net.clone(), &BuildConfig { grid_exponent: 11, threads: 1 }).unwrap();
        for q in [0, 17, 150, 299] {
            let good = answer(&index, &objects, q);
            assert_eq!(wrong_answer(&net, &objects, &good), None);

            let mut short = good;
            short.len -= 1;
            assert!(wrong_answer(&net, &objects, &short).is_some());

            let mut uncertified = good;
            uncertified.complete = false;
            assert!(wrong_answer(&net, &objects, &uncertified).is_some());

            let mut twice = good;
            twice.neighbors[1] = twice.neighbors[0];
            assert!(wrong_answer(&net, &objects, &twice).is_some());

            let mut narrow = good;
            narrow.neighbors[K - 1].2 = 0f64.to_bits();
            assert!(wrong_answer(&net, &objects, &narrow).is_some());

            // Swap in the farthest object with an honest (infinite) interval:
            // sound, but no longer the k nearest.
            let far = brute_force_knn(&net, &objects, VertexId(q), objects.len());
            let mut not_nearest = good;
            not_nearest.neighbors[0] =
                (far.last().unwrap().0 .0, 0f64.to_bits(), f64::INFINITY.to_bits());
            assert!(wrong_answer(&net, &objects, &not_nearest).is_some());
        }
    }

    #[test]
    fn sampler_keeps_every_64th_until_full() {
        let mut s = Sampler::new(3);
        let kept: Vec<usize> = (0..1000).filter(|&i| s.slot(i).is_some()).collect();
        assert_eq!(kept, vec![0, 64, 128]);
        assert_eq!(s.samples().len(), 3);
    }
}
