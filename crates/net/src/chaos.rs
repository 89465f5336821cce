//! Deterministic chaos harness: named fault presets and a seeded
//! scenario grid for hostile-network testing.
//!
//! A [`ChaosPreset`] is a curated [`FaultConfig`] (light damage, heavy
//! damage, or a partition window) usable from tests and the
//! `file_multicast` example's `--chaos` flag. [`scenario_grid`] expands
//! the cross product {corruption} × {blackout} × {dup/reorder} ×
//! {receiver death} into named [`ChaosScenario`]s, each with a
//! splitmix64-derived seed, so a single base seed reproduces the whole
//! grid bit-for-bit.

use pm_par::splitmix64;

use crate::fault::FaultConfig;

/// Named fault profiles for chaos runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPreset {
    /// Mild hostility: a few percent loss, corruption, and garbage.
    Light,
    /// Sustained abuse: heavy loss plus every byte-level fault at once.
    Heavy,
    /// A scheduled partition: nothing crosses the network for a while,
    /// with light loss outside the window.
    Blackout,
}

impl ChaosPreset {
    /// Every preset, for grids and help texts.
    pub const ALL: [ChaosPreset; 3] = [
        ChaosPreset::Light,
        ChaosPreset::Heavy,
        ChaosPreset::Blackout,
    ];

    /// Stable lowercase name (the `--chaos` argument).
    pub fn name(&self) -> &'static str {
        match self {
            ChaosPreset::Light => "light",
            ChaosPreset::Heavy => "heavy",
            ChaosPreset::Blackout => "blackout",
        }
    }

    /// Parse a `--chaos` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "light" => Some(ChaosPreset::Light),
            "heavy" => Some(ChaosPreset::Heavy),
            "blackout" => Some(ChaosPreset::Blackout),
            _ => None,
        }
    }

    /// The fault profile this preset stands for.
    pub fn fault_config(&self) -> FaultConfig {
        match self {
            ChaosPreset::Light => FaultConfig {
                drop: 0.05,
                corrupt: 0.02,
                garbage: 0.01,
                ..FaultConfig::none()
            },
            ChaosPreset::Heavy => FaultConfig {
                drop: 0.15,
                duplicate: 0.05,
                reorder: 0.05,
                corrupt: 0.08,
                truncate: 0.04,
                garbage: 0.04,
                send_drop: 0.05,
                blackout: None,
            },
            ChaosPreset::Blackout => FaultConfig {
                drop: 0.02,
                corrupt: 0.01,
                blackout: Some((0.05, 0.25)),
                ..FaultConfig::none()
            },
        }
    }
}

/// One cell of the chaos grid: a fault profile for the receivers, a
/// (milder) profile for the sender's feedback path, a number of
/// permanently-dead receivers, and a derived seed.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Human-readable cell label, e.g. `corrupt+blackout+reorder+dead1`.
    pub name: String,
    /// Fault profile wrapped around every live receiver's transport.
    pub receiver_fault: FaultConfig,
    /// Fault profile wrapped around the sender's transport (its receive
    /// path carries NAK/Done feedback).
    pub sender_fault: FaultConfig,
    /// Receivers that are announced but never join (silent stragglers).
    pub dead_receivers: u32,
    /// Scenario seed, splitmix64-derived from the grid's base seed.
    pub seed: u64,
}

/// Expand the full {corruption} × {blackout} × {dup/reorder} ×
/// {receiver death} grid (16 scenarios) from one base seed.
///
/// Every scenario's seed is `splitmix64(base_seed + cell_index)`: the
/// grid is reproducible from `base_seed` alone, and scenarios stay
/// decorrelated.
pub fn scenario_grid(base_seed: u64) -> Vec<ChaosScenario> {
    let corruption = [("clean", 0.0), ("corrupt", 0.05)];
    let blackout = [("steady", None), ("blackout", Some((0.05, 0.20)))];
    let churn = [("ordered", 0.0), ("churn", 0.05)];
    let death = [("alive", 0u32), ("dead1", 1u32)];

    let mut grid = Vec::new();
    for (c_name, corrupt) in corruption {
        for (b_name, window) in blackout {
            for (r_name, churn_p) in churn {
                for (d_name, dead) in death {
                    let cell = grid.len() as u64;
                    let receiver_fault = FaultConfig {
                        drop: 0.02,
                        duplicate: churn_p,
                        reorder: churn_p,
                        corrupt,
                        truncate: corrupt / 2.0,
                        garbage: corrupt / 2.0,
                        send_drop: 0.0,
                        blackout: window,
                    };
                    // The sender's feedback path sees corruption but no
                    // loss: lost Done reports are indistinguishable from
                    // dead receivers, which the `dead` axis owns.
                    let sender_fault = FaultConfig {
                        corrupt,
                        ..FaultConfig::none()
                    };
                    grid.push(ChaosScenario {
                        name: format!("{c_name}+{b_name}+{r_name}+{d_name}"),
                        receiver_fault,
                        sender_fault,
                        dead_receivers: dead,
                        seed: splitmix64(base_seed.wrapping_add(cell)),
                    });
                }
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // Outputs of the canonical splitmix64 `next()` from states 0 and 1,
        // through pm-par's mixer, which the grid's seeds come from.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn presets_parse_and_validate() {
        for preset in ChaosPreset::ALL {
            assert_eq!(ChaosPreset::parse(preset.name()), Some(preset));
            // FaultConfig::validate (via FaultyTransport::new) would
            // panic on a bad profile; constructing one proves validity.
            let hub = crate::mem::MemHub::new();
            let _ = crate::fault::FaultyTransport::new(hub.join(), preset.fault_config(), 1);
        }
        assert_eq!(ChaosPreset::parse("nonsense"), None);
    }

    #[test]
    fn grid_is_deterministic_and_complete() {
        let a = scenario_grid(42);
        let b = scenario_grid(42);
        assert_eq!(a.len(), 16, "full 2^4 cross product");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.receiver_fault, y.receiver_fault);
        }
        // Distinct base seeds decorrelate every cell.
        let c = scenario_grid(43);
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
        // Names are unique.
        let names: std::collections::BTreeSet<_> = a.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names.len(), 16);
        // The death axis is present.
        assert_eq!(a.iter().filter(|s| s.dead_receivers > 0).count(), 8);
    }
}
