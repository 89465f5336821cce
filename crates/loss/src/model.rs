//! The loss-model trait and shared helpers.

/// A (possibly stateful) packet-loss process over a fixed receiver
/// population.
///
/// One call to [`LossModel::sample_lost`] (or its dense twin
/// [`LossModel::sample`]) corresponds to one multicast transmission: the
/// model decides, jointly for all receivers, who loses that packet. Spatial
/// correlation (shared tree loss) lives *within* one call; temporal
/// correlation (burst loss) lives *across* calls via the `time` argument.
///
/// `time` is the absolute send time in seconds and must be non-decreasing
/// across calls for time-dependent models; memoryless models ignore it.
///
/// # The sparse view
///
/// At the paper's loss rates almost every receiver gets almost every
/// packet, so the pattern of one transmission is the *list of receivers
/// that lost it*, and a consumer that only looks at that list does work
/// proportional to the losses rather than to `R`. The list is ascending so
/// that consumers can intersect it with their own sorted sets by merging,
/// test membership by `binary_search`, and so that equal seeds give equal
/// vectors, not merely equal sets.
///
/// The memoryless models — [`crate::IndependentLoss`],
/// [`crate::PerReceiverLoss`] / [`crate::TwoClassLoss`] and
/// [`crate::TreeLoss::full_binary`] — *produce* the list in `O(losses)` by
/// geometric skipping: the gap to the next loss is
/// `floor(ln U / ln(1-p))` with `U` drawn from `(0, 1]` (never 0, whose
/// logarithm is not a gap; 1 is the gap-0 outcome), one draw per loss
/// instead of one per receiver. [`crate::GilbertLoss`] and
/// [`crate::TreeBurstLoss`] advance one Markov chain per receiver (node)
/// and read the list off the chain states, `O(R)` per call.
///
/// The dense `&mut [bool]` view is *defined through* the sparse one, so a
/// model has one RNG stream whichever view its caller takes.
pub trait LossModel {
    /// Size of the receiver population `R`.
    fn receivers(&self) -> usize;

    /// Sample one transmission at time `time`: overwrite `out` with the
    /// strictly ascending indices of the receivers that lose it.
    fn sample_lost(&mut self, time: f64, out: &mut Vec<u32>);

    /// Sample the loss pattern of one transmission at time `time`.
    /// Overwrites every entry of `lost` (`lost.len() == receivers()`).
    /// The provided expansion allocates its index list per call: the dense
    /// view is for tests and single-receiver studies, not for hot loops.
    ///
    /// # Panics
    /// Panics if `lost.len() != receivers()` (caller bug).
    fn sample(&mut self, time: f64, lost: &mut [bool]) {
        assert_eq!(lost.len(), self.receivers(), "loss buffer size mismatch");
        let mut indices = Vec::new();
        self.sample_lost(time, &mut indices);
        lost.fill(false);
        for &r in &indices {
            lost[r as usize] = true;
        }
    }

    /// Convenience: sample into a fresh vector.
    fn sample_vec(&mut self, time: f64) -> Vec<bool> {
        let mut v = vec![false; self.receivers()];
        self.sample(time, &mut v);
        v
    }

    /// Convenience: sample and return only whether a *specific* receiver
    /// lost the packet — used by single-receiver studies. The model still
    /// advances all internal state so sequences stay reproducible;
    /// `scratch` is overwritten (pass the same vector every call).
    fn sample_one(&mut self, time: f64, receiver: usize, scratch: &mut Vec<u32>) -> bool {
        self.sample_lost(time, scratch);
        scratch.binary_search(&(receiver as u32)).is_ok()
    }
}

/// Blanket impl so `&mut M` can be passed where a model is consumed.
impl<M: LossModel + ?Sized> LossModel for &mut M {
    fn receivers(&self) -> usize {
        (**self).receivers()
    }
    fn sample_lost(&mut self, time: f64, out: &mut Vec<u32>) {
        (**self).sample_lost(time, out)
    }
    fn sample(&mut self, time: f64, lost: &mut [bool]) {
        (**self).sample(time, lost)
    }
}

/// Sparse view of a dense pattern a chain model keeps as its state:
/// overwrite `out` with the indices of the `true` entries.
pub(crate) fn lost_indices(dense: &[bool], out: &mut Vec<u32>) {
    out.clear();
    out.extend(
        dense
            .iter()
            .enumerate()
            .filter(|(_, &lost)| lost)
            .map(|(r, _)| r as u32),
    );
}

/// Measure the empirical per-receiver loss rate of a model over `packets`
/// transmissions spaced `delta` seconds apart. Returns the overall fraction
/// of `(packet, receiver)` pairs lost. Test/calibration helper.
pub fn empirical_loss_rate<M: LossModel>(model: &mut M, packets: usize, delta: f64) -> f64 {
    let mut lost = Vec::new();
    let mut total_lost = 0usize;
    for i in 0..packets {
        model.sample_lost(i as f64 * delta, &mut lost);
        total_lost += lost.len();
    }
    total_lost as f64 / (packets * model.receivers()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bernoulli::IndependentLoss;

    #[test]
    fn sample_vec_matches_receivers() {
        let mut m = IndependentLoss::new(3, 0.5, 42);
        assert_eq!(m.sample_vec(0.0).len(), 3);
    }

    #[test]
    fn mut_ref_is_a_model() {
        fn takes_model<M: LossModel>(m: M) -> usize {
            m.receivers()
        }
        let mut m = IndependentLoss::new(5, 0.1, 1);
        assert_eq!(takes_model(&mut m), 5);
    }

    #[test]
    fn empirical_rate_close_to_p() {
        let mut m = IndependentLoss::new(100, 0.2, 7);
        let rate = empirical_loss_rate(&mut m, 2000, 0.04);
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }
}
