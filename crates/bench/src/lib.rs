#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "measured codec rates are wall-clock by definition"
)]
//! Figure-regeneration harness.
//!
//! One module per measured figure of the paper; each builds a [`Figure`]
//! — labelled series of `(x, y)` points — from the same machinery a
//! downstream user would call (`pm-analysis` for the closed forms,
//! `pm-sim` for the simulated scenarios, `pm-rse` timed in-process for the
//! codec rates). The `figures` binary prints them as aligned tables and
//! dumps JSON/CSV for plotting.
//!
//! Figures 2 and 13 of the paper are architecture/timing diagrams (nothing
//! to measure); all others are covered:
//!
//! | module | paper figure |
//! |---|---|
//! | [`fig01`] | coding/decoding rate vs redundancy |
//! | [`fig03`], [`fig04`] | layered FEC vs no-FEC, h = 2 / h = 7 |
//! | [`fig05`], [`fig06`] | layered vs integrated; finite parity budgets |
//! | [`fig07`], [`fig08`] | integrated vs R; integrated vs p |
//! | [`fig09`], [`fig10`] | heterogeneous populations, no-FEC / integrated |
//! | [`fig11`], [`fig12`] | shared (FBT) loss vs independent, simulated |
//! | [`fig14`] | burst-length distribution |
//! | [`fig15`], [`fig16`] | burst loss: layered; integrated 1 vs 2 |
//! | [`fig17`], [`fig18`] | N2/NP processing rates and throughput |

pub mod common;
pub mod ext;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;

pub use common::{Figure, Quality, Series};
pub use ext::extension_figures;

/// A figure generator: quality knob in, figure out.
pub type FigureFn = fn(Quality) -> Figure;

/// Every figure generator, in paper order: `(id, generate)`.
pub fn all_figures() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("fig1", fig01::generate as FigureFn),
        ("fig3", fig03::generate),
        ("fig4", fig04::generate),
        ("fig5", fig05::generate),
        ("fig6", fig06::generate),
        ("fig7", fig07::generate),
        ("fig8", fig08::generate),
        ("fig9", fig09::generate),
        ("fig10", fig10::generate),
        ("fig11", fig11::generate),
        ("fig12", fig12::generate),
        ("fig14", fig14::generate),
        ("fig15", fig15::generate),
        ("fig16", fig16::generate),
        ("fig17", fig17::generate),
        ("fig18", fig18::generate),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let figs = all_figures();
        assert_eq!(figs.len(), 16);
        let mut ids: Vec<_> = figs.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    /// Smoke-run every figure at Quick quality: non-empty series, finite
    /// values. (The real shape checks live in each module's tests and in
    /// the integration suite.)
    #[test]
    fn all_figures_generate_quick() {
        for (id, f) in all_figures() {
            let fig = f(Quality::Quick);
            assert!(!fig.series.is_empty(), "{id} has no series");
            for s in &fig.series {
                assert!(!s.points.is_empty(), "{id}/{} empty", s.label);
                for &(x, y) in &s.points {
                    assert!(
                        x.is_finite() && y.is_finite(),
                        "{id}/{}: ({x},{y})",
                        s.label
                    );
                }
            }
        }
    }
}
