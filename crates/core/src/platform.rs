//! The simulated VCU128 testbed: device + rail + fault injection + traffic.

use hbm_device::{
    AccessPattern, AccessTimingModel, BandwidthModel, ClockConfig, DeviceError, DramTimings,
    HbmDevice, HbmGeometry, PortId, TimingStretchModel, TransientCrashModel, Word256, WordOffset,
    CRASH_FLOOR,
};
use hbm_faults::{FaultInjector, FaultModelParams, RatePredictor};
use hbm_power::{HbmPowerModel, PowerModelParams};
use hbm_traffic::{MemoryPort, PortProvider};
use hbm_units::{Amperes, Celsius, GigabytesPerSecond, Millivolts, Ratio, Watts};
use hbm_vreg::{HostInterface, PowerRail};
use serde::{Deserialize, Serialize};

use crate::engine::{DescentRows, ShardPort};
use crate::error::ExperimentError;

/// One power measurement as the host records it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerSample {
    /// The regulator set-point at measurement time.
    pub voltage: Millivolts,
    /// Bandwidth utilization during the measurement.
    pub utilization: Ratio,
    /// Power read from the INA226 (quantized, averaged).
    pub power: Watts,
    /// Current read from the INA226.
    pub current: Amperes,
}

/// Builder for a [`Platform`].
///
/// # Examples
///
/// ```
/// use hbm_device::HbmGeometry;
/// use hbm_undervolt::Platform;
///
/// let platform = Platform::builder()
///     .seed(99)
///     .geometry(HbmGeometry::vcu128_reduced())
///     .build();
/// assert_eq!(platform.seed(), 99);
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    seed: u64,
    geometry: HbmGeometry,
    fault_params: FaultModelParams,
    power_params: PowerModelParams,
    clock: ClockConfig,
    temperature: Celsius,
    workers: usize,
    v_crash: Millivolts,
    transient: Option<TransientCrashModel>,
    timings: DramTimings,
    timing_stretch: TimingStretchModel,
}

impl PlatformBuilder {
    /// The device seed: identifies the simulated silicon specimen
    /// (process variation, fault map).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The device geometry. Defaults to the reduced VCU128 geometry
    /// (256 KB per pseudo channel) so exhaustive walks stay fast;
    /// figure-grade fault rates always come from the full-scale analytic
    /// predictor regardless of this setting.
    #[must_use]
    pub fn geometry(mut self, geometry: HbmGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Fault-model parameters (defaults: the study's calibration).
    #[must_use]
    pub fn fault_params(mut self, params: FaultModelParams) -> Self {
        self.fault_params = params;
        self
    }

    /// Power-model parameters (defaults: the study's calibration).
    #[must_use]
    pub fn power_params(mut self, params: PowerModelParams) -> Self {
        self.power_params = params;
        self
    }

    /// Memory clocking (defaults: 900 MHz / 1800 MT/s).
    #[must_use]
    pub fn clock(mut self, clock: ClockConfig) -> Self {
        self.clock = clock;
        self
    }

    /// Operating temperature (defaults: the study's 35 °C).
    #[must_use]
    pub fn temperature(mut self, temperature: Celsius) -> Self {
        self.temperature = temperature;
        self
    }

    /// Number of worker threads the sweep engine may use (default 1 =
    /// sequential). Results are bit-identical for every worker count: the
    /// engine partitions work by pseudo channel into disjoint shards and
    /// all randomness is keyed per work item, so only wall-clock time
    /// changes.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The crash floor `v_crash`: driving the rail below this voltage
    /// crashes the device (default: the study's V_critical, 810 mV).
    #[must_use]
    pub fn v_crash(mut self, v_crash: Millivolts) -> Self {
        self.v_crash = v_crash;
        self
    }

    /// Enables the stochastic transient-failure model: each supply change
    /// landing within `window` above the crash floor crashes the platform
    /// with the given probability (deterministically keyed by seed, voltage
    /// and attempt). Used for fault-injection testing of the resilient
    /// sweep runtime; the default is off.
    #[must_use]
    pub fn transient_crashes(mut self, model: TransientCrashModel) -> Self {
        self.transient = Some(model);
        self
    }

    /// Nominal DRAM core timings (defaults: representative HBM2 values at
    /// the study's 900 MHz clock). These are the *nominal-voltage* values;
    /// the effective timings at the present rail come from the stretch
    /// model (see [`Platform::effective_timings`]).
    #[must_use]
    pub fn timings(mut self, timings: DramTimings) -> Self {
        self.timings = timings;
        self
    }

    /// The voltage→timing stretch model coupling the rail to the DRAM core
    /// timings (defaults: [`TimingStretchModel::date21`]). Pass
    /// [`TimingStretchModel::none`] for the pre-Voltron assumption that
    /// timings are voltage-independent.
    #[must_use]
    pub fn timing_stretch(mut self, stretch: TimingStretchModel) -> Self {
        self.timing_stretch = stretch;
        self
    }

    /// Assembles the platform.
    ///
    /// # Panics
    ///
    /// Panics if the fault or power parameters fail validation.
    #[must_use]
    pub fn build(self) -> Platform {
        let mut injector = FaultInjector::new(self.fault_params.clone(), self.geometry, self.seed);
        injector.set_temperature(self.temperature);
        let mut predictor = RatePredictor::new(self.fault_params.clone(), self.geometry, self.seed);
        predictor.set_temperature(self.temperature);
        let mut full_predictor =
            RatePredictor::new(self.fault_params.clone(), HbmGeometry::vcu128(), self.seed);
        full_predictor.set_temperature(self.temperature);
        let mut rail = PowerRail::vcc_hbm(self.seed);
        rail.set_ambient(self.temperature);
        let mut device = HbmDevice::new(self.geometry);
        device.set_crash_floor(self.v_crash);
        device.set_transient_crashes(self.transient, self.seed);
        Platform {
            device,
            rail,
            injector,
            predictor,
            full_predictor,
            power_model: HbmPowerModel::new(self.power_params),
            bandwidth: BandwidthModel::new(self.geometry, self.clock),
            timing: AccessTimingModel::new(self.geometry, self.clock, self.timings),
            timing_stretch: self.timing_stretch,
            seed: self.seed,
            workers: self.workers,
            descent_rows: DescentRows::new(),
        }
    }
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        PlatformBuilder {
            seed: 0,
            geometry: HbmGeometry::vcu128_reduced(),
            fault_params: FaultModelParams::date21(),
            power_params: PowerModelParams::date21(),
            clock: ClockConfig::vcu128(),
            temperature: Celsius::STUDY_AMBIENT,
            workers: 1,
            v_crash: CRASH_FLOOR,
            transient: None,
            timings: DramTimings::hbm2(),
            timing_stretch: TimingStretchModel::date21(),
        }
    }
}

/// The simulated testbed: the HBM device with undervolting fault injection
/// on its AXI read path, the `VCC_HBM` power rail the host controls over
/// PMBus, the power model loading that rail, and analytic predictors for
/// figure-grade fault rates.
///
/// # Examples
///
/// ```
/// use hbm_undervolt::Platform;
/// use hbm_units::Millivolts;
///
/// # fn main() -> Result<(), hbm_undervolt::ExperimentError> {
/// let mut platform = Platform::builder().seed(7).build();
/// assert_eq!(platform.voltage(), Millivolts(1200));
///
/// // Crash below V_critical, recover by power cycling.
/// platform.set_voltage(Millivolts(800))?;
/// assert!(platform.is_crashed());
/// platform.power_cycle(Millivolts(1200))?;
/// assert!(!platform.is_crashed());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    device: HbmDevice,
    rail: PowerRail,
    injector: FaultInjector,
    predictor: RatePredictor,
    full_predictor: RatePredictor,
    power_model: HbmPowerModel,
    bandwidth: BandwidthModel,
    timing: AccessTimingModel,
    timing_stretch: TimingStretchModel,
    seed: u64,
    workers: usize,
    /// Descent rows measured on this testbed so far; they hold until the
    /// temperature changes the fault realization.
    descent_rows: DescentRows,
}

impl Platform {
    /// Starts building a platform.
    #[must_use]
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::default()
    }

    /// The device seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The device geometry.
    #[must_use]
    pub fn geometry(&self) -> HbmGeometry {
        self.device.geometry()
    }

    /// Number of pseudo channels (32 on the study platform).
    #[must_use]
    pub fn pseudo_channel_count(&self) -> usize {
        usize::from(self.geometry().total_pcs())
    }

    /// The present rail voltage.
    #[must_use]
    pub fn voltage(&self) -> Millivolts {
        self.rail.voltage()
    }

    /// Commands a new supply voltage through the PMBus regulator and
    /// propagates it to the device (which crashes below V_critical).
    ///
    /// # Errors
    ///
    /// PMBus errors (e.g. above `VOUT_MAX`).
    pub fn set_voltage(&mut self, target: Millivolts) -> Result<(), ExperimentError> {
        HostInterface::new(self.rail.regulator_mut()).set_vout(target)?;
        self.device.set_supply(self.rail.voltage());
        Ok(())
    }

    /// `true` if the device has crashed and needs a power cycle.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.device.is_crashed()
    }

    /// The crash floor: the device crashes whenever the rail drops below
    /// this voltage (see [`PlatformBuilder::v_crash`]).
    #[must_use]
    pub fn v_crash(&self) -> Millivolts {
        self.device.crash_floor()
    }

    /// Number of power cycles this platform has performed.
    #[must_use]
    pub fn power_cycle_count(&self) -> u32 {
        self.device.power_cycle_count()
    }

    /// Power-cycles the board: the rail drives the regulator output off,
    /// back on at `restart` and clears latched faults; the device restarts,
    /// losing all DRAM content. Uninitialized content after the cycle is
    /// re-randomized deterministically from the platform seed (and the
    /// cycle count), modelling the undefined power-up state of real DRAM
    /// without breaking run-to-run reproducibility.
    ///
    /// # Errors
    ///
    /// PMBus errors.
    pub fn power_cycle(&mut self, restart: Millivolts) -> Result<(), ExperimentError> {
        self.rail.power_cycle(restart)?;
        self.device
            .power_cycle_with_seed(self.rail.voltage(), self.seed);
        Ok(())
    }

    /// The device (e.g. for port enable/disable).
    #[must_use]
    pub fn device(&self) -> &HbmDevice {
        &self.device
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut HbmDevice {
        &mut self.device
    }

    /// The descent rows computed on this testbed, for the sweeps that read
    /// and add to them.
    pub(crate) fn descent_rows(&mut self) -> &mut DescentRows {
        &mut self.descent_rows
    }

    /// The fault injector (the simulated silicon's fault behaviour).
    #[must_use]
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Analytic rate predictor at the device's own geometry.
    #[must_use]
    pub fn predictor(&self) -> &RatePredictor {
        &self.predictor
    }

    /// Analytic rate predictor at the full-scale 8 GB geometry — what the
    /// figure pipelines use for absolute fault counts.
    #[must_use]
    pub fn full_scale_predictor(&self) -> &RatePredictor {
        &self.full_predictor
    }

    /// The power model.
    #[must_use]
    pub fn power_model(&self) -> &HbmPowerModel {
        &self.power_model
    }

    /// The bandwidth model.
    #[must_use]
    pub fn bandwidth_model(&self) -> &BandwidthModel {
        &self.bandwidth
    }

    /// The access-timing model at *nominal* voltage (the builder's
    /// [`DramTimings`]).
    #[must_use]
    pub fn timing_model(&self) -> &AccessTimingModel {
        &self.timing
    }

    /// The voltage→timing stretch model in effect.
    #[must_use]
    pub fn timing_stretch(&self) -> &TimingStretchModel {
        &self.timing_stretch
    }

    /// The access-timing model at the supply the device currently *sees*
    /// (the drooped rail output, not just the set-point): `set_voltage`
    /// and load-induced droop both move it. A pure function of
    /// `(seed, supply)`, so it is bit-identical across worker counts and
    /// adds no state to the sweep hot path.
    #[must_use]
    pub fn effective_timing_model(&self) -> AccessTimingModel {
        self.timing
            .at_voltage(&self.timing_stretch, self.seed, self.device.supply())
    }

    /// The DRAM core timings at the present supply (stretched below the
    /// knee; see [`TimingStretchModel`]).
    #[must_use]
    pub fn effective_timings(&self) -> DramTimings {
        self.effective_timing_model().timings()
    }

    /// Delivered bandwidth a pattern sustains at the present supply, all
    /// ports running: the raw pin rate derated by the stretched-timing
    /// efficiency estimate. This is the fourth axis of the trade-off —
    /// what undervolting costs in GB/s before it costs a single bit.
    #[must_use]
    pub fn delivered_bandwidth(&self, pattern: AccessPattern) -> GigabytesPerSecond {
        GigabytesPerSecond(self.effective_timing_model().delivered_gbps(pattern))
    }

    /// Latency of one access under a pattern at the present supply, in
    /// nanoseconds (see [`AccessTimingModel::access_latency_ns`]).
    #[must_use]
    pub fn access_latency_ns(&self, pattern: AccessPattern) -> f64 {
        self.effective_timing_model().access_latency_ns(pattern)
    }

    /// Enables exactly the first `n` AXI ports (the study's bandwidth
    /// steps: 0, 8, 16, 24, 32).
    pub fn enable_ports(&mut self, n: usize) {
        self.device.ports_mut().enable_first(n);
    }

    /// Number of enabled AXI ports.
    #[must_use]
    pub fn enabled_ports(&self) -> usize {
        self.device.ports().enabled_count()
    }

    /// Present bandwidth utilization implied by the enabled ports.
    #[must_use]
    pub fn utilization(&self) -> Ratio {
        self.bandwidth.utilization(self.enabled_ports())
    }

    /// Achieved bandwidth with the enabled ports running flat out.
    #[must_use]
    pub fn achieved_bandwidth(&self) -> GigabytesPerSecond {
        self.bandwidth.achieved(
            self.enabled_ports(),
            self.device.switch().bandwidth_derate(),
        )
    }

    /// The device-wide union fault fraction at the present voltage
    /// (analytic, device geometry) — the quantity that degrades effective
    /// switched capacitance.
    #[must_use]
    pub fn fault_fraction(&self) -> Ratio {
        self.predictor.device_rate(self.voltage())
    }

    /// Loads the rail with the model's power draw at `utilization` and the
    /// present voltage/fault state, then reads the INA226 the way the
    /// study's host does.
    ///
    /// # Errors
    ///
    /// PMBus errors from the telemetry path.
    pub fn measure_power(&mut self, utilization: Ratio) -> Result<PowerSample, ExperimentError> {
        let load = self
            .power_model
            .power(self.voltage(), utilization, self.fault_fraction());
        self.rail.apply_load(load);
        // With a non-zero load line the output sags under load; the device
        // sees the drooped voltage (ideal regulation by default).
        self.device.set_supply(self.rail.voltage());
        let sample = self.rail.sample()?;
        Ok(PowerSample {
            voltage: sample.requested,
            utilization,
            power: sample.power,
            current: sample.current,
        })
    }

    /// Enables a load-line (droop) resistance on the regulator: the rail
    /// sags by `iout × r` under load, so a heavily loaded device sees less
    /// voltage than commanded — the PDN hazard that undervolting margins
    /// must absorb. The default is ideal regulation (0 Ω), matching the
    /// study's analysis.
    pub fn set_load_line(&mut self, r: hbm_units::Ohms) {
        self.rail.regulator_mut().set_load_line(r);
    }

    /// Changes the operating temperature of the whole testbed: the fault
    /// injector (whose region probability cache and descent rows this
    /// invalidates), both analytic predictors, and the rail's ambient.
    pub fn set_temperature(&mut self, temperature: Celsius) {
        self.descent_rows.clear();
        self.injector.set_temperature(temperature);
        self.predictor.set_temperature(temperature);
        self.full_predictor.set_temperature(temperature);
        self.rail.set_ambient(temperature);
    }

    /// Lends fault-injecting access to one AXI port.
    pub fn port(&mut self, port: PortId) -> UndervoltedPort<'_> {
        UndervoltedPort {
            device: &mut self.device,
            injector: &self.injector,
            port,
        }
    }

    /// Number of worker threads the sweep engine may use.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Splits the device into one fault-injecting [`ShardPort`] per pseudo
    /// channel, in global index order — the parallel engine's disjoint
    /// accesses. All shards borrow the device simultaneously, so they can
    /// be moved onto worker threads.
    ///
    /// # Errors
    ///
    /// Device errors if the device has crashed or the switching network is
    /// enabled (see [`hbm_device::HbmDevice::pc_shards`]).
    pub fn shard_ports(&mut self) -> Result<Vec<ShardPort<'_>>, ExperimentError> {
        let injector = &self.injector;
        let shards = self.device.pc_shards().map_err(ExperimentError::from)?;
        Ok(shards
            .into_iter()
            .map(|shard| ShardPort::new(shard, injector))
            .collect())
    }
}

impl PortProvider for Platform {
    type Port<'a> = UndervoltedPort<'a>;

    fn port(&mut self, id: PortId) -> UndervoltedPort<'_> {
        Platform::port(self, id)
    }
}

/// Fault-injecting AXI port access: writes go straight to the arrays,
/// reads pass through the undervolting fault model at the device's present
/// supply voltage.
#[derive(Debug)]
pub struct UndervoltedPort<'a> {
    device: &'a mut HbmDevice,
    injector: &'a FaultInjector,
    port: PortId,
}

impl MemoryPort for UndervoltedPort<'_> {
    fn write(&mut self, offset: WordOffset, word: Word256) -> Result<(), DeviceError> {
        self.device.axi_write(self.port, offset, word)
    }

    fn read(&mut self, offset: WordOffset) -> Result<Word256, DeviceError> {
        let stored = self.device.axi_read(self.port, offset)?;
        Ok(self
            .injector
            .observe(stored, self.port.direct_pc(), offset, self.device.supply()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbm_traffic::{DataPattern, MacroProgram, TrafficGenerator};

    fn platform() -> Platform {
        Platform::builder().seed(7).build()
    }

    #[test]
    fn builder_defaults() {
        let p = platform();
        assert_eq!(p.voltage(), Millivolts(1200));
        assert_eq!(p.pseudo_channel_count(), 32);
        assert_eq!(p.enabled_ports(), 32);
        assert_eq!(p.utilization(), Ratio::ONE);
        assert!(!p.is_crashed());
    }

    #[test]
    fn voltage_sweep_through_regulator() {
        let mut p = platform();
        for mv in (810..=1200).rev().step_by(10) {
            p.set_voltage(Millivolts(mv)).unwrap();
            assert_eq!(p.voltage(), Millivolts(mv));
            assert!(!p.is_crashed(), "must not crash at {mv} mV");
        }
    }

    #[test]
    fn crash_and_power_cycle() {
        let mut p = platform();
        p.set_voltage(Millivolts(800)).unwrap();
        assert!(p.is_crashed());
        // Raising the voltage does not recover.
        p.set_voltage(Millivolts(1200)).unwrap();
        assert!(p.is_crashed());
        p.power_cycle(Millivolts(1200)).unwrap();
        assert!(!p.is_crashed());
        assert_eq!(p.voltage(), Millivolts(1200));
    }

    #[test]
    fn port_enablement_controls_bandwidth() {
        let mut p = platform();
        p.enable_ports(8);
        assert_eq!(p.enabled_ports(), 8);
        assert_eq!(p.utilization(), Ratio(0.25));
        assert!((p.achieved_bandwidth().as_f64() - 77.5).abs() < 1e-9);
        p.enable_ports(0);
        assert_eq!(p.achieved_bandwidth(), GigabytesPerSecond::ZERO);
    }

    #[test]
    fn guardband_reads_are_exact() {
        let mut p = platform();
        p.set_voltage(Millivolts(980)).unwrap();
        let port = PortId::new(4).unwrap(); // a sensitive PC, even
        let mut tg = TrafficGenerator::new(port);
        let program = MacroProgram::write_then_check(0..2048, DataPattern::AllOnes);
        let stats = tg.run(&program, &mut Platform::port(&mut p, port)).unwrap();
        assert_eq!(stats.total_flips(), 0);
    }

    #[test]
    fn deep_undervolting_flips_bits() {
        let mut p = platform();
        p.set_voltage(Millivolts(830)).unwrap();
        let port = PortId::new(0).unwrap();
        let mut tg = TrafficGenerator::new(port);
        let program = MacroProgram::write_then_check(0..64, DataPattern::AllOnes);
        let stats = tg.run(&program, &mut Platform::port(&mut p, port)).unwrap();
        // Near-total failure: ~47 % of bits stuck at 0 under all-ones.
        assert!(stats.flips_1to0 > 5000, "flips {:?}", stats);
        assert_eq!(stats.flips_0to1, 0, "all-ones cannot show 0→1 flips");
    }

    #[test]
    fn measured_power_matches_model() {
        let mut p = platform();
        let sample = p.measure_power(Ratio::ONE).unwrap();
        let expected = p
            .power_model()
            .power(Millivolts(1200), Ratio::ONE, Ratio::ZERO);
        assert!((sample.power.as_f64() - expected.as_f64()).abs() < 0.05);
        assert_eq!(sample.voltage, Millivolts(1200));
    }

    #[test]
    fn guardband_power_saving_1_5x() {
        let mut p = platform();
        let nominal = p.measure_power(Ratio::ONE).unwrap();
        p.set_voltage(Millivolts(980)).unwrap();
        let guardband = p.measure_power(Ratio::ONE).unwrap();
        let saving = nominal.power / guardband.power;
        assert!((saving - 1.5).abs() < 0.05, "saving {saving}");
    }

    #[test]
    fn deep_power_saving_includes_capacitance_drop() {
        let mut p = platform();
        let nominal = p.measure_power(Ratio::ONE).unwrap();
        p.set_voltage(Millivolts(850)).unwrap();
        let deep = p.measure_power(Ratio::ONE).unwrap();
        let saving = nominal.power / deep.power;
        // Quadratic alone would be ≈2.0×; stuck bits push towards ≈2.3×.
        assert!((2.15..2.5).contains(&saving), "saving {saving}");
    }

    #[test]
    fn fault_fraction_tracks_voltage() {
        let mut p = platform();
        assert_eq!(p.fault_fraction(), Ratio::ZERO);
        p.set_voltage(Millivolts(850)).unwrap();
        let f = p.fault_fraction().as_f64();
        assert!((0.1..0.4).contains(&f), "fraction {f}");
    }

    #[test]
    fn undervolting_stretches_latency_and_sheds_bandwidth() {
        let mut p = platform();
        let lat_nom = p.access_latency_ns(AccessPattern::RandomWord);
        let bw_nom = p.delivered_bandwidth(AccessPattern::SequentialStream);
        p.set_voltage(Millivolts(900)).unwrap();
        let lat_low = p.access_latency_ns(AccessPattern::RandomWord);
        let bw_low = p.delivered_bandwidth(AccessPattern::SequentialStream);
        assert!(lat_low > lat_nom, "latency {lat_nom} !< {lat_low}");
        assert!(bw_low < bw_nom, "bandwidth {bw_low} !< {bw_nom}");
        // Restoring nominal restores nominal timing exactly.
        p.set_voltage(Millivolts(1200)).unwrap();
        assert_eq!(p.effective_timings(), p.timing_model().timings());
    }

    #[test]
    fn timing_stretch_sees_the_drooped_rail_not_the_setpoint() {
        use hbm_units::Ohms;
        let mut p = platform();
        p.set_voltage(Millivolts(1000)).unwrap();
        let undrooped = p.access_latency_ns(AccessPattern::RandomWord);
        p.set_load_line(Ohms(0.004));
        p.measure_power(Ratio::ONE).unwrap();
        // Same set-point, sagged rail: effective timing must be slower.
        assert!(p.access_latency_ns(AccessPattern::RandomWord) > undrooped);
    }

    #[test]
    fn stretch_free_builds_are_voltage_blind() {
        let mut p = Platform::builder()
            .seed(7)
            .timing_stretch(TimingStretchModel::none())
            .build();
        let nominal = p.effective_timings();
        p.set_voltage(Millivolts(850)).unwrap();
        assert_eq!(p.effective_timings(), nominal);
    }

    #[test]
    fn load_line_droop_reaches_the_device() {
        use hbm_units::Ohms;
        let mut p = platform();
        p.set_load_line(Ohms(0.004));
        p.set_voltage(Millivolts(1000)).unwrap();
        // Measuring at full load draws ~4.3 W → ~4.3 A → ~17 mV droop.
        p.measure_power(Ratio::ONE).unwrap();
        let sagged = p.voltage();
        assert!(sagged < Millivolts(1000), "output must sag: {sagged}");
        assert!(
            sagged > Millivolts(960),
            "droop magnitude plausible: {sagged}"
        );
        // Dropping the load restores the output.
        p.measure_power(Ratio::ZERO).unwrap();
        assert!(p.voltage() > sagged);
    }

    #[test]
    fn droop_can_crash_a_marginal_setpoint() {
        use hbm_units::Ohms;
        let mut p = platform();
        p.set_load_line(Ohms(0.010));
        // 0.82 V commanded is above the crash floor …
        p.set_voltage(Millivolts(820)).unwrap();
        assert!(!p.is_crashed());
        // … but a heavy load transient droops the rail below 0.81 V.
        p.measure_power(Ratio::ONE).unwrap();
        assert!(p.is_crashed(), "load transient must crash the device");
    }

    #[test]
    fn temperature_change_reaches_the_injector_cache() {
        use hbm_device::PcIndex;
        use hbm_faults::{KernelBackend, MaskKernel};
        let mut p = platform();
        p.set_voltage(Millivolts(880)).unwrap();
        let pc = PcIndex::new(0).unwrap();
        let count = |p: &Platform| {
            p.injector()
                .kernel(KernelBackend::Auto)
                .count_range(pc, 0..512, Millivolts(880))
        };
        // Warm the injector's region probability cache at ambient …
        let cold = count(&p);
        // … then heat the testbed: the cache must be invalidated, so the
        // same query now reflects the new temperature shift.
        p.set_temperature(Celsius(55.0));
        let hot = count(&p);
        assert_ne!(hot, cold, "temperature change must alter fault counts");
    }

    #[test]
    fn power_cycle_loses_content_to_a_seeded_background() {
        let mut p = platform();
        let port = PortId::new(1).unwrap();
        {
            let mut access = Platform::port(&mut p, port);
            access.write(WordOffset(0), Word256::ONES).unwrap();
        }
        p.power_cycle(Millivolts(1200)).unwrap();
        assert_eq!(p.power_cycle_count(), 1);
        // The written word is gone; what remains is the deterministic
        // power-up noise derived from the platform seed, not all-zeros.
        let pc = port.direct_pc();
        let background = p.device().pseudo_channel(pc).array().background();
        assert_ne!(background, Word256::ONES);
        assert_ne!(background, Word256::ZERO);
        let mut access = Platform::port(&mut p, port);
        assert_eq!(access.read(WordOffset(0)).unwrap(), background);

        // The same seed reproduces the same power-up state.
        let mut q = platform();
        q.power_cycle(Millivolts(1200)).unwrap();
        assert_eq!(
            q.device().pseudo_channel(pc).array().background(),
            background
        );
    }

    #[test]
    fn configurable_crash_floor_and_transient_injection() {
        let mut p = Platform::builder().seed(7).v_crash(Millivolts(900)).build();
        assert_eq!(p.v_crash(), Millivolts(900));
        p.set_voltage(Millivolts(890)).unwrap();
        assert!(p.is_crashed(), "must crash below the raised floor");
        p.power_cycle(Millivolts(1200)).unwrap();
        assert!(!p.is_crashed());

        // A certain transient (probability 1) within the window crashes the
        // platform even though the voltage is above the crash floor.
        let mut t = Platform::builder()
            .seed(7)
            .transient_crashes(TransientCrashModel::new(1.0, Millivolts(50)))
            .build();
        t.set_voltage(Millivolts(840)).unwrap();
        assert!(t.is_crashed(), "certain transient must fire in the window");
        t.power_cycle(Millivolts(1200)).unwrap();
        assert!(!t.is_crashed());
        // Outside the window the same platform is stable.
        t.set_voltage(Millivolts(1000)).unwrap();
        assert!(!t.is_crashed());
    }
}
