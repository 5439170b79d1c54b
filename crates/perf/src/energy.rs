//! Energy accounting: joules per image across the compute continuum.
//!
//! The paper's conclusion frames tuning as "balancing latency requirements
//! with energy efficiency and memory utilization", and Table 1 pins the
//! Jetson to its 25 W mode — but the paper never quantifies energy. This
//! module closes that gap with a standard two-component device power model:
//!
//! `P(utilization) = P_idle + (P_board − P_idle) · u`
//!
//! where `u` is the MFU-derived utilization during a batch. Energy per
//! image is then `P · latency / batch`. The qualitative result the
//! continuum story needs falls out: the Jetson is the energy-efficiency
//! winner at its operating points even though the A100 wins raw throughput
//! — and batching is an energy optimization, not just a throughput one.

use crate::mfu::EnginePerfModel;
use harvest_hw::PlatformId;
use harvest_models::ModelId;

/// Fraction of board power drawn when the accelerator idles (clock gating
/// never reaches zero; ~25–35 % is typical for both dGPUs and Jetson
/// boards).
const IDLE_FRACTION: f64 = 0.30;

/// Energy model for one (platform, model) pair.
#[derive(Clone, Debug)]
pub struct EnergyModel {
    perf: EnginePerfModel,
    board_w: f64,
}

/// One energy evaluation point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyPoint {
    /// Batch size.
    pub batch: u32,
    /// Average power during the batch, watts.
    pub power_w: f64,
    /// Energy per image, millijoules.
    pub mj_per_image: f64,
    /// Images per joule (the efficiency figure of merit).
    pub images_per_joule: f64,
}

impl EnergyModel {
    /// Build for a pair (board power from the Table 1 spec).
    pub fn new(platform: PlatformId, model: ModelId) -> Self {
        EnergyModel {
            perf: EnginePerfModel::new(platform, model),
            board_w: platform.spec().power_w,
        }
    }

    /// The underlying performance model.
    pub fn perf(&self) -> &EnginePerfModel {
        &self.perf
    }

    /// Average power while executing a batch of `bs`, watts.
    pub fn power_w(&self, bs: u32) -> f64 {
        let u = self.perf.curve().mfu(bs) / self.perf.curve().mfu_inf;
        self.board_w * (IDLE_FRACTION + (1.0 - IDLE_FRACTION) * u)
    }

    /// Full energy point at a batch size.
    pub fn point(&self, bs: u32) -> EnergyPoint {
        let power = self.power_w(bs);
        let latency = self.perf.latency_s(bs);
        let joules_per_image = power * latency / bs as f64;
        EnergyPoint {
            batch: bs,
            power_w: power,
            mj_per_image: joules_per_image * 1e3,
            images_per_joule: 1.0 / joules_per_image,
        }
    }

    /// Board power while idling, watts (the floor between batches).
    pub fn idle_power_w(&self) -> f64 {
        self.board_w * IDLE_FRACTION
    }

    /// The energy-optimal batch from an axis (most images per joule).
    pub fn best_batch(&self, axis: &[u32]) -> EnergyPoint {
        axis.iter()
            .map(|&bs| self.point(bs))
            .max_by(|a, b| {
                a.images_per_joule
                    .partial_cmp(&b.images_per_joule)
                    .expect("finite")
            })
            .expect("non-empty axis")
    }
}

/// Fleet-wide energy rollup: accumulates busy and idle joules across many
/// nodes (and, merged shard-by-shard in index order, across a whole
/// sharded fleet — the fixed merge order keeps float sums deterministic).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetEnergy {
    busy_joules: f64,
    idle_joules: f64,
    busy_seconds: f64,
    images: u64,
}

impl FleetEnergy {
    /// An empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account a batch execution: `power_w` for `seconds`, producing
    /// `images` classified images (see [`EnergyModel::power_w`]).
    pub fn record_busy(&mut self, power_w: f64, seconds: f64, images: u64) {
        self.busy_joules += power_w * seconds;
        self.busy_seconds += seconds;
        self.images += images;
    }

    /// Account idle floor power: `idle_power_w` across `seconds` of
    /// node-time not covered by batches.
    pub fn record_idle(&mut self, idle_power_w: f64, seconds: f64) {
        self.idle_joules += idle_power_w * seconds;
    }

    /// Fold another rollup in (call in a fixed order for bit-stable sums).
    pub fn merge(&mut self, other: &FleetEnergy) {
        self.busy_joules += other.busy_joules;
        self.idle_joules += other.idle_joules;
        self.busy_seconds += other.busy_seconds;
        self.images += other.images;
    }

    /// Joules spent executing batches.
    pub fn busy_joules(&self) -> f64 {
        self.busy_joules
    }

    /// Joules spent holding the idle floor.
    pub fn idle_joules(&self) -> f64 {
        self.idle_joules
    }

    /// Node-seconds spent executing batches.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Images accounted through [`FleetEnergy::record_busy`].
    pub fn images(&self) -> u64 {
        self.images
    }

    /// Total joules, busy plus idle.
    pub fn total_joules(&self) -> f64 {
        self.busy_joules + self.idle_joules
    }

    /// Millijoules per image over the whole rollup (idle amortized in) —
    /// the fleet-level figure of merit. Zero images yields 0.
    pub fn mj_per_image(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.total_joules() * 1e3 / self.images as f64
        }
    }

    /// Total energy in watt-hours (dashboards speak Wh, not joules).
    pub fn watt_hours(&self) -> f64 {
        self.total_joules() / 3_600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_models::ALL_MODELS;

    #[test]
    fn energy_per_image_improves_with_batch() {
        // Amortizing idle power over bigger batches is the whole point of
        // batching from the energy angle.
        for platform in [PlatformId::MriA100, PlatformId::JetsonOrinNano] {
            let e = EnergyModel::new(platform, ModelId::VitSmall);
            let small = e.point(1);
            let big = e.point(64);
            assert!(
                big.mj_per_image < small.mj_per_image,
                "{platform:?}: {} vs {}",
                big.mj_per_image,
                small.mj_per_image
            );
        }
    }

    #[test]
    fn power_is_bounded_by_board_power() {
        for platform in [
            PlatformId::MriA100,
            PlatformId::PitzerV100,
            PlatformId::JetsonOrinNano,
        ] {
            for model in ALL_MODELS {
                let e = EnergyModel::new(platform, model);
                for bs in [1u32, 8, 64, 1024] {
                    let p = e.power_w(bs);
                    assert!(p > 0.0 && p < platform.spec().power_w, "{platform:?} {p}");
                    assert!(p >= platform.spec().power_w * IDLE_FRACTION);
                }
            }
        }
    }

    #[test]
    fn energy_crossover_between_edge_and_cloud() {
        // The continuum's energy story has two regimes:
        // * latency-constrained (small batch): the 25 W Jetson wins big —
        //   the A100 burns ~120 W idling between small kernels;
        // * bulk throughput (saturated batch): the A100's better
        //   FLOPS-per-watt (236 T / 400 W vs 11.4 T / 25 W) wins back.
        for model in ALL_MODELS {
            let jetson = EnergyModel::new(PlatformId::JetsonOrinNano, model);
            let a100 = EnergyModel::new(PlatformId::MriA100, model);
            let j1 = jetson.point(1);
            let a1 = a100.point(1);
            assert!(
                j1.images_per_joule > 2.5 * a1.images_per_joule,
                "{model:?} @BS1: jetson {} vs a100 {}",
                j1.images_per_joule,
                a1.images_per_joule
            );
            let j_best = jetson.best_batch(PlatformId::JetsonOrinNano.spec().batch_axis);
            let a_best = a100.best_batch(PlatformId::MriA100.spec().batch_axis);
            assert!(
                a_best.images_per_joule > j_best.images_per_joule,
                "{model:?} saturated: a100 {} vs jetson {}",
                a_best.images_per_joule,
                j_best.images_per_joule
            );
        }
    }

    #[test]
    fn a100_wins_raw_throughput_anyway() {
        // Sanity that the efficiency win is not a throughput win.
        let jetson = EnergyModel::new(PlatformId::JetsonOrinNano, ModelId::ResNet50);
        let a100 = EnergyModel::new(PlatformId::MriA100, ModelId::ResNet50);
        assert!(a100.perf().throughput(64) > 10.0 * jetson.perf().throughput(64));
    }

    #[test]
    fn smaller_models_cost_less_energy_per_image() {
        let e_tiny = EnergyModel::new(PlatformId::JetsonOrinNano, ModelId::VitTiny).point(8);
        let e_base = EnergyModel::new(PlatformId::JetsonOrinNano, ModelId::VitBase).point(8);
        assert!(e_tiny.mj_per_image < e_base.mj_per_image);
    }

    #[test]
    fn fleet_rollup_accounts_busy_idle_and_merge() {
        let jetson = EnergyModel::new(PlatformId::JetsonOrinNano, ModelId::VitTiny);
        let mut a = FleetEnergy::new();
        a.record_busy(jetson.power_w(8), 2.0, 16);
        a.record_idle(jetson.idle_power_w(), 10.0);
        assert!((a.busy_joules() - jetson.power_w(8) * 2.0).abs() < 1e-9);
        assert!((a.idle_joules() - 25.0 * IDLE_FRACTION * 10.0).abs() < 1e-9);
        assert_eq!(a.images(), 16);
        assert!((a.total_joules() - (a.busy_joules() + a.idle_joules())).abs() < 1e-12);
        assert!((a.watt_hours() * 3600.0 - a.total_joules()).abs() < 1e-9);

        let mut b = FleetEnergy::new();
        b.record_busy(100.0, 1.0, 4);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.images(), 20);
        assert!((merged.total_joules() - (a.total_joules() + b.total_joules())).abs() < 1e-9);
        // mJ/image amortizes idle across the produced images.
        assert!(merged.mj_per_image() > 0.0);
        assert_eq!(FleetEnergy::new().mj_per_image(), 0.0);
    }

    #[test]
    fn best_batch_is_the_largest_on_monotone_curves() {
        // images/joule is monotone in batch under this model, so the best
        // batch is the axis maximum; the method must find it.
        let e = EnergyModel::new(PlatformId::MriA100, ModelId::VitTiny);
        let best = e.best_batch(PlatformId::MriA100.spec().batch_axis);
        assert_eq!(best.batch, 1024);
    }
}
