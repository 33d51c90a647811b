//! Declarative scenario value model.
//!
//! A [`ScenarioSpec`] is the *data* of an experiment scenario — floorplan
//! geometry, station placements, interferer set with duty cycles, MAC
//! thresholds, FEC/HARQ knobs, traffic pattern, and packet budget — with a
//! JSON round trip through the vendored serde layer. Every registry
//! artifact exposes one via [`crate::registry::Experiment::spec`], and the
//! sweep engine ([`crate::sweep`]) perturbs spec fields by dotted path
//! (`ScenarioSpec::set_field`) to expand a parameter space into concrete
//! runnable scenarios.
//!
//! The runnable half is `ScenarioSpec::run_pair`, the one builder and
//! runner of single-pair trials: build the scenario from the trial's
//! scenario and propagation seeds (receiver is station 0, the measured
//! sender station 1, then extras, then ambient sources), run it, and
//! analyze the receiver trace. The paper's single-pair drivers derive each
//! of their trials from their artifact's spec by editing fields;
//! `ScenarioSpec::run_in` runs a spec at a [`Scale`] and folds the analysis
//! into a small [`SpecMetrics`] record the sweep summary ranks on.

use crate::executor::trial_seed;
use crate::experiments::common::{expected_series, test_receiver, test_sender, Scale};
use serde::{Serialize, SerializeStruct, Serializer};
use wavelan_analysis::json::{self, Value};
use wavelan_analysis::{analyze, PacketClass, TraceAnalysis};
use wavelan_mac::network_id::NetworkId;
use wavelan_mac::Thresholds;
use wavelan_net::testpkt::Endpoint;
use wavelan_phy::interference::DutyCycle;
use wavelan_phy::{InterferenceKind, Material};
use wavelan_sim::runner::attach_tx_count;
use wavelan_sim::station::{FrameKind, Traffic};
use wavelan_sim::{
    AmbientSource, Emitter, FloorPlan, Point, Propagation, Scenario, ScenarioBuilder, Segment,
    SimScratch, StationConfig, TrialResult,
};

/// Feet per meter, for reading geometry back out of a built [`FloorPlan`].
const METERS_TO_FEET: f64 = 1.0 / wavelan_sim::geometry::FEET_TO_METERS;

/// Seed-stream id for spec-driven runs (propagation draws its own stream so
/// a spec run never aliases a registry experiment's trial streams).
pub(crate) const SPEC_STREAM: u64 = 0x5EC;

/// The propagation seed [`ScenarioSpec::build`] pairs with scenario seed
/// `seed`.
pub(crate) fn paired_propagation_seed(seed: u64) -> u64 {
    trial_seed(SPEC_STREAM, 1, seed)
}

/// A malformed spec, field path, or spec JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(message.into()))
}

/// One wall of the floor plan, in the paper's feet.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSpec {
    /// Segment start, feet.
    pub x0_ft: f64,
    /// Segment start, feet.
    pub y0_ft: f64,
    /// Segment end, feet.
    pub x1_ft: f64,
    /// Segment end, feet.
    pub y1_ft: f64,
    /// Material name (see `material_from_name`).
    pub material: String,
}

/// Resolves a wall material name (`concrete-block`, `plaster-wire-mesh`,
/// `wood-door`, `drywall`, `metal`, `human-body`, `furniture`, or
/// `custom:<tenths-of-dB>`).
pub(crate) fn material_from_name(name: &str) -> Result<Material, SpecError> {
    Ok(match name {
        "plaster-wire-mesh" => Material::PlasterWireMesh,
        "concrete-block" => Material::ConcreteBlock,
        "wood-door" => Material::WoodDoor,
        "drywall" => Material::Drywall,
        "metal" => Material::Metal,
        "human-body" => Material::HumanBody,
        "furniture" => Material::Furniture,
        custom => match custom
            .strip_prefix("custom:")
            .and_then(|t| t.parse::<u16>().ok())
        {
            Some(tenths) => Material::CustomTenthsDb(tenths),
            None => return err(format!("unknown wall material {name:?}")),
        },
    })
}

/// The inverse of [`material_from_name`].
pub(crate) fn material_name(material: Material) -> String {
    match material {
        Material::PlasterWireMesh => "plaster-wire-mesh".into(),
        Material::ConcreteBlock => "concrete-block".into(),
        Material::WoodDoor => "wood-door".into(),
        Material::Drywall => "drywall".into(),
        Material::Metal => "metal".into(),
        Material::HumanBody => "human-body".into(),
        Material::Furniture => "furniture".into(),
        Material::CustomTenthsDb(tenths) => format!("custom:{tenths}"),
    }
}

/// The propagation model a spec runs under.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationSpec {
    /// `indoor` (exponent 2.2) or `lecture-hall` (two-ray ripple).
    pub model: String,
    /// Shadowing standard deviation, dB (0 disables).
    pub shadowing_sigma_db: f64,
}

impl PropagationSpec {
    /// The calibrated indoor default (exponent 2.2, 1.5 dB shadowing).
    pub(crate) fn indoor() -> PropagationSpec {
        PropagationSpec {
            model: "indoor".into(),
            shadowing_sigma_db: 1.5,
        }
    }

    /// The open lecture-hall model (two-ray ripple, no shadowing).
    pub(crate) fn lecture_hall() -> PropagationSpec {
        PropagationSpec {
            model: "lecture-hall".into(),
            shadowing_sigma_db: 0.0,
        }
    }

    /// Builds the simulator model at the given seed.
    pub(crate) fn build(&self, seed: u64) -> Result<Propagation, SpecError> {
        let mut prop = match self.model.as_str() {
            "indoor" => Propagation::indoor(seed),
            "lecture-hall" => Propagation::lecture_hall(seed),
            other => return err(format!("unknown propagation model {other:?}")),
        };
        prop.shadowing_sigma_db = self.shadowing_sigma_db;
        Ok(prop)
    }
}

/// What a station does in the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The measured, trace-recording receiver (station 0; exactly one).
    Receiver,
    /// A test-packet sender; the first sender is the measured series.
    Sender,
    /// A saturating, carrier-deaf competitor (Section 7.4 style).
    Jammer,
    /// Foreign-building chatter; outsiders pair up in declaration order.
    Outsider,
}

impl Role {
    /// The spec-file name of the role.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Role::Receiver => "receiver",
            Role::Sender => "sender",
            Role::Jammer => "jammer",
            Role::Outsider => "outsider",
        }
    }

    fn from_name(name: &str) -> Result<Role, SpecError> {
        Ok(match name {
            "receiver" => Role::Receiver,
            "sender" => Role::Sender,
            "jammer" => Role::Jammer,
            "outsider" => Role::Outsider,
            other => return err(format!("unknown station role {other:?}")),
        })
    }
}

/// One station placement.
#[derive(Debug, Clone, PartialEq)]
pub struct StationSpec {
    /// What the station does.
    pub role: Role,
    /// Position, feet.
    pub x_ft: f64,
    /// Position, feet.
    pub y_ft: f64,
    /// Receive threshold (masks weak packets and governs carrier sense).
    pub receive_threshold: u8,
    /// Quality threshold (the study's default is 1).
    pub quality_threshold: u8,
    /// Application send interval, ns; 0 means saturate (senders only).
    pub interval_ns: u64,
    /// Explicit test-frame body size, bytes; 0 means the study's standard
    /// 1070-byte test packet.
    pub frame_bytes: u16,
}

impl StationSpec {
    /// A station of the given role at `(x_ft, y_ft)` with the study's
    /// defaults (thresholds 3/1, the ≈1.4 Mb/s send interval, standard
    /// test frames).
    pub(crate) fn new(role: Role, x_ft: f64, y_ft: f64) -> StationSpec {
        StationSpec {
            role,
            x_ft,
            y_ft,
            receive_threshold: match role {
                Role::Jammer => Thresholds::deaf().receive_level,
                _ => Thresholds::default().receive_level,
            },
            quality_threshold: 1,
            interval_ns: match role {
                Role::Sender => 6_100_000,
                _ => 0,
            },
            frame_bytes: 0,
        }
    }

    /// The station's position.
    pub(crate) fn position(&self) -> Point {
        Point::feet(self.x_ft, self.y_ft)
    }

    /// The station's thresholds.
    pub(crate) fn thresholds(&self) -> Thresholds {
        Thresholds {
            receive_level: self.receive_threshold,
            quality: self.quality_threshold,
        }
    }

    /// The frame kind the station emits.
    pub(crate) fn frame(&self) -> FrameKind {
        if self.frame_bytes == 0 {
            FrameKind::Test
        } else {
            FrameKind::Sized {
                bytes: self.frame_bytes,
            }
        }
    }
}

/// One ambient interference source.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfererSpec {
    /// `narrowband`, `wideband`, `out-of-band`, or `wavelan`.
    pub kind: String,
    /// Delivered power at the receiver, dBm.
    pub power_dbm: f64,
    /// On-air fraction, percent; ≥100 is continuous, ≤0 disables the
    /// source entirely (the sweep's clean-control points).
    pub duty_pct: f64,
    /// Burst frame period in 500 ns bit-times (used when `0 < duty < 100`).
    pub period_bits: u64,
    /// Per-burst log-normal power jitter, dB.
    pub burst_sigma_db: f64,
}

impl InterfererSpec {
    /// A bursty source: on for `duty_pct` percent of every `period_bits`
    /// bit-times.
    pub(crate) fn burst(
        kind: &str,
        power_dbm: f64,
        duty_pct: f64,
        period_bits: u64,
    ) -> InterfererSpec {
        InterfererSpec {
            kind: kind.into(),
            power_dbm,
            duty_pct,
            period_bits,
            burst_sigma_db: 0.0,
        }
    }

    /// Builds the simulator source; `None` when the duty cycle is zero.
    pub(crate) fn build(&self) -> Result<Option<AmbientSource>, SpecError> {
        if self.duty_pct <= 0.0 {
            return Ok(None);
        }
        let kind = match self.kind.as_str() {
            "narrowband" => InterferenceKind::NarrowbandInBand,
            "wideband" => InterferenceKind::WidebandInBand,
            "out-of-band" => InterferenceKind::OutOfBand,
            "wavelan" => InterferenceKind::WaveLan,
            other => return err(format!("unknown interferer kind {other:?}")),
        };
        let duty = if self.duty_pct >= 100.0 {
            DutyCycle::Continuous
        } else {
            if self.period_bits == 0 {
                return err(format!(
                    "interferer duty {}% needs period_bits > 0",
                    self.duty_pct
                ));
            }
            let on_bits = ((self.period_bits as f64 * self.duty_pct / 100.0).round() as u64).max(1);
            DutyCycle::Burst {
                period_bits: self.period_bits,
                on_bits,
            }
        };
        Ok(Some(AmbientSource {
            kind,
            duty,
            burst_sigma_db: self.burst_sigma_db,
            emitter: Emitter::FixedPower(self.power_dbm),
        }))
    }
}

/// Converts a calibrated [`AmbientSource`] into its declarative mirror, so
/// experiment specs can be written straight from `crate::calibration`
/// presets.
pub(crate) fn interferer_from_source(source: &AmbientSource) -> InterfererSpec {
    let kind = match source.kind {
        InterferenceKind::NarrowbandInBand => "narrowband",
        InterferenceKind::WidebandInBand => "wideband",
        InterferenceKind::OutOfBand => "out-of-band",
        InterferenceKind::WaveLan => "wavelan",
    };
    let (duty_pct, period_bits) = match source.duty {
        DutyCycle::Continuous => (100.0, 0),
        DutyCycle::Burst {
            period_bits,
            on_bits,
        } => (
            on_bits as f64 * 100.0 / (period_bits as f64).max(1.0),
            period_bits,
        ),
    };
    let power_dbm = match source.emitter {
        Emitter::FixedPower(dbm) => dbm,
        Emitter::Positioned { eirp_dbm, .. } => eirp_dbm,
    };
    InterfererSpec {
        kind: kind.into(),
        power_dbm,
        duty_pct,
        period_bits,
        burst_sigma_db: source.burst_sigma_db,
    }
}

/// Descriptive FEC/HARQ knobs of an artifact (the coding experiments).
#[derive(Debug, Clone, PartialEq)]
pub struct FecSpec {
    /// RCPC code rate (`"1/2"`, `"8/9"`, …) or `"adaptive"`.
    pub code_rate: String,
    /// Incremental-redundancy rounds (0 = plain FEC, no retransmission).
    pub harq_rounds: u32,
}

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the registry artifact name for experiment specs).
    pub name: String,
    /// Floor plan walls.
    pub walls: Vec<WallSpec>,
    /// Propagation model.
    pub propagation: PropagationSpec,
    /// Stations; the first must be the [`Role::Receiver`].
    pub stations: Vec<StationSpec>,
    /// Ambient interference sources.
    pub interferers: Vec<InterfererSpec>,
    /// Capture margin, dB (the simulator default is 6).
    pub capture_margin_db: f64,
    /// FEC/HARQ parameters, when the artifact codes its payloads.
    pub fec: Option<FecSpec>,
    /// Paper-scale packet budget of the measured sender (scaled by
    /// [`Scale::packets`] at run time).
    pub packet_budget: u64,
}

impl ScenarioSpec {
    /// A receiver/sender pair in an open room — the smallest useful spec.
    pub fn pair(name: &str, rx_ft: (f64, f64), tx_ft: (f64, f64), budget: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            walls: Vec::new(),
            propagation: PropagationSpec::indoor(),
            stations: vec![
                StationSpec::new(Role::Receiver, rx_ft.0, rx_ft.1),
                StationSpec::new(Role::Sender, tx_ft.0, tx_ft.1),
            ],
            interferers: Vec::new(),
            capture_margin_db: 6.0,
            fec: None,
            packet_budget: budget,
        }
    }

    /// Adds the walls of an already-built [`FloorPlan`] (geometry read back
    /// in feet), so specs reuse `crate::layouts` verbatim.
    pub(crate) fn with_plan(mut self, plan: &FloorPlan) -> ScenarioSpec {
        for wall in plan.walls() {
            self.walls.push(WallSpec {
                x0_ft: wall.segment.a.x * METERS_TO_FEET,
                y0_ft: wall.segment.a.y * METERS_TO_FEET,
                x1_ft: wall.segment.b.x * METERS_TO_FEET,
                y1_ft: wall.segment.b.y * METERS_TO_FEET,
                material: material_name(wall.material),
            });
        }
        self
    }

    /// Adds an interferer.
    pub(crate) fn with_interferer(mut self, interferer: InterfererSpec) -> ScenarioSpec {
        self.interferers.push(interferer);
        self
    }

    /// Adds a station.
    pub(crate) fn with_station(mut self, station: StationSpec) -> ScenarioSpec {
        self.stations.push(station);
        self
    }

    /// Sets the propagation model.
    pub(crate) fn with_propagation(mut self, propagation: PropagationSpec) -> ScenarioSpec {
        self.propagation = propagation;
        self
    }

    /// The standard outsider pair from another building (the paper's weak
    /// foreign ARP chatter), at the conventional positions.
    pub(crate) fn with_outsiders(self) -> ScenarioSpec {
        self.with_station(StationSpec::new(Role::Outsider, -430.0, 60.0))
            .with_station(StationSpec::new(Role::Outsider, -540.0, 80.0))
    }

    /// Builds the floor plan.
    pub(crate) fn floorplan(&self) -> Result<FloorPlan, SpecError> {
        let mut plan = FloorPlan::open();
        for wall in &self.walls {
            plan.add_wall(
                Segment::feet(wall.x0_ft, wall.y0_ft, wall.x1_ft, wall.y1_ft),
                material_from_name(&wall.material)?,
            );
        }
        Ok(plan)
    }

    /// Builds the runnable scenario at the given seed: the scenario draws
    /// from `seed` and the propagation model from [`paired_propagation_seed`]
    /// (see [`ScenarioSpec::build_seeded`]).
    pub fn build(&self, seed: u64) -> Result<(Scenario, usize, usize), SpecError> {
        self.build_seeded(seed, paired_propagation_seed(seed))
    }

    /// Builds the runnable scenario from its two seeds: `scenario_seed`
    /// drives the traffic, MAC and host draws, `propagation_seed` the slow
    /// fading realization. Returns the scenario plus the receiver and
    /// measured-sender station ids.
    ///
    /// The receiver must be declared first and becomes station 0, the
    /// measured sender second; extra stations and outsider pairs follow in
    /// declaration order, then the ambient sources.
    pub(crate) fn build_seeded(
        &self,
        scenario_seed: u64,
        propagation_seed: u64,
    ) -> Result<(Scenario, usize, usize), SpecError> {
        match self.stations.first() {
            Some(s) if s.role == Role::Receiver => {}
            _ => return err("the first station must be the receiver"),
        }
        if self
            .stations
            .iter()
            .skip(1)
            .any(|s| s.role == Role::Receiver)
        {
            return err("exactly one receiver station is supported");
        }
        if !self.stations.iter().any(|s| s.role == Role::Sender) {
            return err("a sender station is required");
        }
        let mut b = ScenarioBuilder::new(scenario_seed);
        let rx = b.station(StationConfig {
            thresholds: self.stations[0].thresholds(),
            ..StationConfig::receiver(test_receiver(), self.stations[0].position())
        });
        let mut measured_tx = None;
        let mut pending_outsider: Option<usize> = None;
        let mut extras = 0u8;
        for station in self.stations.iter().skip(1) {
            match station.role {
                Role::Receiver => unreachable!("validated above"),
                Role::Sender => {
                    let endpoint = if measured_tx.is_none() {
                        test_sender()
                    } else {
                        extras += 1;
                        Endpoint::station(2 + extras)
                    };
                    let mut config = StationConfig::sender(endpoint, station.position(), rx);
                    config.thresholds = station.thresholds();
                    config.frame = station.frame();
                    config.traffic = if station.interval_ns == 0 {
                        Traffic::Saturate { peer: rx }
                    } else {
                        Traffic::Periodic {
                            peer: rx,
                            interval_ns: station.interval_ns,
                        }
                    };
                    let id = b.station(config);
                    if measured_tx.is_none() {
                        measured_tx = Some(id);
                    }
                }
                Role::Jammer => {
                    extras += 1;
                    let mut config = StationConfig::jammer(
                        Endpoint::foreign(100 + extras),
                        station.position(),
                        rx,
                    );
                    config.thresholds = station.thresholds();
                    config.frame = station.frame();
                    b.station(config);
                }
                Role::Outsider => {
                    // Outsiders pair up: each chatters to the other at the
                    // conventional 9 ms / 13 ms intervals.
                    let id = b.next_station_id();
                    let (peer, interval_ns, tag) = match pending_outsider.take() {
                        None => {
                            pending_outsider = Some(id);
                            (id + 1, 9_000_000, 200)
                        }
                        Some(first) => (first, 13_000_000, 201),
                    };
                    let mut config =
                        StationConfig::sender(Endpoint::foreign(tag), station.position(), peer);
                    config.network_id = NetworkId(0x0B5D);
                    config.frame = FrameKind::Chatter;
                    config.traffic = Traffic::Periodic { peer, interval_ns };
                    assert_eq!(b.station(config), id);
                }
            }
        }
        if pending_outsider.is_some() {
            return err("outsider stations must come in pairs");
        }
        for interferer in &self.interferers {
            if let Some(source) = interferer.build()? {
                b.ambient(source);
            }
        }
        let mut scenario = b.floorplan(self.floorplan()?).build();
        scenario.capture_margin_db = self.capture_margin_db;
        scenario.propagation = self.propagation.build(propagation_seed)?;
        Ok((scenario, rx, measured_tx.expect("sender validated above")))
    }

    /// Runs one single-pair trial of the spec — build, run `packets` test
    /// packets, count the sender's transmissions into the receiver trace,
    /// analyze it — the one runner every spec-built trial goes through.
    pub(crate) fn run_pair(
        &self,
        packets: u64,
        scenario_seed: u64,
        propagation_seed: u64,
        scratch: &mut SimScratch,
    ) -> Result<PairTrial, SpecError> {
        let (scenario, rx, tx) = self.build_seeded(scenario_seed, propagation_seed)?;
        let mut result = scenario.run_in(tx, packets, scratch);
        attach_tx_count(&mut result, rx, tx);
        let trace = result.traces[rx].take().expect("receiver records");
        Ok(PairTrial {
            analysis: analyze(&trace, &expected_series()),
            result,
            rx,
        })
    }

    /// Runs the spec at `scale` and folds the receiver trace into metrics.
    pub(crate) fn run_in(
        &self,
        scale: Scale,
        seed: u64,
        scratch: &mut SimScratch,
    ) -> Result<SpecMetrics, SpecError> {
        let packets = scale.packets(self.packet_budget);
        let analysis = self
            .run_pair(packets, seed, paired_propagation_seed(seed), scratch)?
            .analysis;
        let received = analysis.test_packets().count() as u64;
        // The measured sender's frame shape decides how body damage is
        // judged: standard test frames carry the repeated-word body the
        // analysis classifier understands; sized frames
        // ([`FrameKind::Sized`]) carry no redundancy, so body damage is not
        // observable there. Truncation needs no special case either way —
        // the classifier compares each record against its own announced
        // wire length.
        let frame_bytes = self
            .stations
            .iter()
            .find(|s| s.role == Role::Sender)
            .map_or(0, |s| s.frame_bytes);
        let truncated = analysis.count(PacketClass::Truncated) as u64;
        let (undamaged, body_bits_damaged) = if frame_bytes == 0 {
            (
                analysis.count(PacketClass::Undamaged) as u64,
                analysis
                    .test_packets()
                    .map(|p| u64::from(p.body_bit_errors))
                    .sum(),
            )
        } else {
            (received - truncated, 0)
        };
        let pct = |n: u64| {
            if received == 0 {
                0.0
            } else {
                n as f64 * 100.0 / received as f64
            }
        };
        Ok(SpecMetrics {
            transmitted: packets,
            received,
            packet_loss_pct: analysis.packet_loss() * 100.0,
            truncated,
            truncated_pct: pct(truncated),
            intact_pct: pct(undamaged),
            body_bits_damaged,
        })
    }

    /// Reads one numeric field by dotted path (see [`ScenarioSpec::set_field`]).
    pub(crate) fn get_field(&self, path: &str) -> Result<f64, SpecError> {
        let mut probe = self.clone();
        probe.field_ref(path).map(|slot| slot.get())
    }

    /// Writes one numeric field by dotted path — the sweep engine's knob
    /// interface. Supported paths:
    ///
    /// * `packet_budget`, `capture_margin_db`,
    ///   `propagation.shadowing_sigma_db`
    /// * `walls[i].{x0_ft,y0_ft,x1_ft,y1_ft}`
    /// * `stations[i].{x_ft,y_ft,receive_threshold,quality_threshold,interval_ns,frame_bytes}`
    /// * `interferers[i].{power_dbm,duty_pct,period_bits,burst_sigma_db}`
    ///
    /// Integer-typed fields round to the nearest representable value; a
    /// failed lookup leaves the spec untouched.
    pub(crate) fn set_field(&mut self, path: &str, value: f64) -> Result<(), SpecError> {
        self.field_ref(path)?.set(value);
        Ok(())
    }

    /// Resolves a dotted path to a typed reference into the spec.
    fn field_ref(&mut self, path: &str) -> Result<FieldRef<'_>, SpecError> {
        use FieldRef::{F64, U16, U64, U8};
        let (head, index, rest) = parse_segment(path)?;
        let unknown = || SpecError(format!("unknown spec field path {path:?}"));
        Ok(match (head, index, rest) {
            ("packet_budget", None, None) => U64(&mut self.packet_budget),
            ("capture_margin_db", None, None) => F64(&mut self.capture_margin_db),
            ("propagation", None, Some("shadowing_sigma_db")) => {
                F64(&mut self.propagation.shadowing_sigma_db)
            }
            ("walls", Some(i), Some(leaf)) => {
                let n = self.walls.len();
                let w = self
                    .walls
                    .get_mut(i)
                    .ok_or_else(|| SpecError(format!("walls[{i}] out of range (len {n})")))?;
                match leaf {
                    "x0_ft" => F64(&mut w.x0_ft),
                    "y0_ft" => F64(&mut w.y0_ft),
                    "x1_ft" => F64(&mut w.x1_ft),
                    "y1_ft" => F64(&mut w.y1_ft),
                    _ => return Err(unknown()),
                }
            }
            ("stations", Some(i), Some(leaf)) => {
                let n = self.stations.len();
                let s = self
                    .stations
                    .get_mut(i)
                    .ok_or_else(|| SpecError(format!("stations[{i}] out of range (len {n})")))?;
                match leaf {
                    "x_ft" => F64(&mut s.x_ft),
                    "y_ft" => F64(&mut s.y_ft),
                    "receive_threshold" => U8(&mut s.receive_threshold),
                    "quality_threshold" => U8(&mut s.quality_threshold),
                    "interval_ns" => U64(&mut s.interval_ns),
                    "frame_bytes" => U16(&mut s.frame_bytes),
                    _ => return Err(unknown()),
                }
            }
            ("interferers", Some(i), Some(leaf)) => {
                let n = self.interferers.len();
                let f = self
                    .interferers
                    .get_mut(i)
                    .ok_or_else(|| SpecError(format!("interferers[{i}] out of range (len {n})")))?;
                match leaf {
                    "power_dbm" => F64(&mut f.power_dbm),
                    "duty_pct" => F64(&mut f.duty_pct),
                    "period_bits" => U64(&mut f.period_bits),
                    "burst_sigma_db" => F64(&mut f.burst_sigma_db),
                    _ => return Err(unknown()),
                }
            }
            _ => return Err(unknown()),
        })
    }

    /// Serializes the spec as pretty JSON.
    pub(crate) fn to_json(&self) -> String {
        json::to_string_pretty(self)
    }
}

impl Default for ScenarioSpec {
    fn default() -> ScenarioSpec {
        ScenarioSpec {
            name: String::new(),
            walls: Vec::new(),
            propagation: PropagationSpec::indoor(),
            stations: Vec::new(),
            interferers: Vec::new(),
            capture_margin_db: 6.0,
            fec: None,
            packet_budget: 1,
        }
    }
}

/// A typed mutable reference to one numeric spec field; integer-backed
/// fields round and saturate on write.
enum FieldRef<'a> {
    F64(&'a mut f64),
    U64(&'a mut u64),
    U16(&'a mut u16),
    U8(&'a mut u8),
}

impl FieldRef<'_> {
    fn get(&self) -> f64 {
        match self {
            FieldRef::F64(v) => **v,
            FieldRef::U64(v) => **v as f64,
            FieldRef::U16(v) => f64::from(**v),
            FieldRef::U8(v) => f64::from(**v),
        }
    }

    fn set(&mut self, value: f64) {
        match self {
            FieldRef::F64(v) => **v = value,
            FieldRef::U64(v) => **v = value.round().max(0.0) as u64,
            FieldRef::U16(v) => **v = value.round().clamp(0.0, 65_535.0) as u16,
            FieldRef::U8(v) => **v = value.round().clamp(0.0, 255.0) as u8,
        }
    }
}

/// Splits `head[index].rest` into its parts.
fn parse_segment(path: &str) -> Result<(&str, Option<usize>, Option<&str>), SpecError> {
    let (segment, rest) = match path.split_once('.') {
        Some((s, r)) => (s, Some(r)),
        None => (path, None),
    };
    match segment.split_once('[') {
        None => Ok((segment, None, rest)),
        Some((head, idx)) => {
            let idx = idx
                .strip_suffix(']')
                .and_then(|i| i.parse::<usize>().ok())
                .ok_or_else(|| SpecError(format!("malformed index in path {path:?}")))?;
            Ok((head, Some(idx), rest))
        }
    }
}

/// One finished [`ScenarioSpec::run_pair`] trial.
#[derive(Debug)]
pub(crate) struct PairTrial {
    /// The receiver trace, analyzed against the test series.
    pub analysis: TraceAnalysis,
    /// The run's per-station counters. The receiver trace is taken out of
    /// it and dropped once analyzed, so a trial never holds it twice.
    pub result: TrialResult,
    /// The receiver's station id.
    pub rx: usize,
}

/// Per-run metrics the sweep engine folds a spec run into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecMetrics {
    /// Test packets the sender was asked to transmit.
    pub transmitted: u64,
    /// Test packets that arrived (any condition).
    pub received: u64,
    /// Lost fraction of transmitted test packets, percent.
    pub packet_loss_pct: f64,
    /// Received test packets cut short.
    pub truncated: u64,
    /// Truncated fraction of received test packets, percent.
    pub truncated_pct: f64,
    /// Undamaged fraction of received test packets, percent.
    pub intact_pct: f64,
    /// Corrupted body bits across all received test packets.
    pub body_bits_damaged: u64,
}

/// Metric names [`SpecMetrics::metric`] resolves.
pub(crate) const METRIC_NAMES: [&str; 7] = [
    "packet_loss_pct",
    "truncated_pct",
    "intact_pct",
    "received",
    "transmitted",
    "truncated",
    "body_bits_damaged",
];

impl SpecMetrics {
    /// Looks a metric up by name (the sweep objective).
    pub(crate) fn metric(&self, name: &str) -> Option<f64> {
        Some(match name {
            "packet_loss_pct" => self.packet_loss_pct,
            "truncated_pct" => self.truncated_pct,
            "intact_pct" => self.intact_pct,
            "received" => self.received as f64,
            "transmitted" => self.transmitted as f64,
            "truncated" => self.truncated as f64,
            "body_bits_damaged" => self.body_bits_damaged as f64,
            _ => return None,
        })
    }
}

impl Serialize for SpecMetrics {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("SpecMetrics", 7)?;
        s.serialize_field("transmitted", &self.transmitted)?;
        s.serialize_field("received", &self.received)?;
        s.serialize_field("packet_loss_pct", &self.packet_loss_pct)?;
        s.serialize_field("truncated", &self.truncated)?;
        s.serialize_field("truncated_pct", &self.truncated_pct)?;
        s.serialize_field("intact_pct", &self.intact_pct)?;
        s.serialize_field("body_bits_damaged", &self.body_bits_damaged)?;
        s.end()
    }
}

impl Serialize for WallSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("WallSpec", 5)?;
        s.serialize_field("x0_ft", &self.x0_ft)?;
        s.serialize_field("y0_ft", &self.y0_ft)?;
        s.serialize_field("x1_ft", &self.x1_ft)?;
        s.serialize_field("y1_ft", &self.y1_ft)?;
        s.serialize_field("material", &self.material)?;
        s.end()
    }
}

impl Serialize for PropagationSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("PropagationSpec", 2)?;
        s.serialize_field("model", &self.model)?;
        s.serialize_field("shadowing_sigma_db", &self.shadowing_sigma_db)?;
        s.end()
    }
}

impl Serialize for StationSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("StationSpec", 7)?;
        s.serialize_field("role", self.role.name())?;
        s.serialize_field("x_ft", &self.x_ft)?;
        s.serialize_field("y_ft", &self.y_ft)?;
        s.serialize_field("receive_threshold", &self.receive_threshold)?;
        s.serialize_field("quality_threshold", &self.quality_threshold)?;
        s.serialize_field("interval_ns", &self.interval_ns)?;
        s.serialize_field("frame_bytes", &self.frame_bytes)?;
        s.end()
    }
}

impl Serialize for InterfererSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("InterfererSpec", 5)?;
        s.serialize_field("kind", &self.kind)?;
        s.serialize_field("power_dbm", &self.power_dbm)?;
        s.serialize_field("duty_pct", &self.duty_pct)?;
        s.serialize_field("period_bits", &self.period_bits)?;
        s.serialize_field("burst_sigma_db", &self.burst_sigma_db)?;
        s.end()
    }
}

impl Serialize for FecSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("FecSpec", 2)?;
        s.serialize_field("code_rate", &self.code_rate)?;
        s.serialize_field("harq_rounds", &self.harq_rounds)?;
        s.end()
    }
}

impl Serialize for ScenarioSpec {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ScenarioSpec", 8)?;
        s.serialize_field("name", &self.name)?;
        s.serialize_field("walls", &self.walls)?;
        s.serialize_field("propagation", &self.propagation)?;
        s.serialize_field("stations", &self.stations)?;
        s.serialize_field("interferers", &self.interferers)?;
        s.serialize_field("capture_margin_db", &self.capture_margin_db)?;
        if let Some(fec) = &self.fec {
            s.serialize_field("fec", fec)?;
        }
        s.serialize_field("packet_budget", &self.packet_budget)?;
        s.end()
    }
}

// ---------------------------------------------------------------------------
// JSON parsing (the other half of the round trip).

/// Reads a string field.
fn want_str<'v>(value: &'v Value, key: &str, what: &str) -> Result<&'v str, SpecError> {
    match value.get(key) {
        Some(Value::Str(s)) => Ok(s),
        _ => err(format!("{what}: missing or non-string {key:?}")),
    }
}

/// Reads a finite number field (a lexeme like `1e999` parses to infinity
/// and is rejected).
fn want_f64(value: &Value, key: &str, what: &str) -> Result<f64, SpecError> {
    match value.get(key) {
        Some(Value::Number(lexeme)) => match lexeme.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            Ok(_) => err(format!("{what}: {key:?} must be finite")),
            Err(_) => err(format!("{what}: malformed number {key:?}")),
        },
        _ => err(format!("{what}: missing or non-number {key:?}")),
    }
}

/// Reads an unsigned-integer field.
fn want_u64(value: &Value, key: &str, what: &str) -> Result<u64, SpecError> {
    match value.get(key) {
        Some(Value::Number(lexeme)) => lexeme
            .parse::<u64>()
            .map_err(|_| SpecError(format!("{what}: {key:?} must be an unsigned integer"))),
        _ => err(format!("{what}: missing or non-number {key:?}")),
    }
}

/// Reads an array field.
fn want_array<'v>(value: &'v Value, key: &str, what: &str) -> Result<&'v [Value], SpecError> {
    match value.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => err(format!("{what}: missing or non-array {key:?}")),
    }
}

/// Reads an object field.
fn want_object<'v>(value: &'v Value, key: &str, what: &str) -> Result<&'v Value, SpecError> {
    match value.get(key) {
        Some(object @ Value::Object(_)) => Ok(object),
        _ => err(format!("{what}: missing or non-object {key:?}")),
    }
}

/// Rejects any key of the object `value` outside `allowed`: a misspelled
/// key is an error, not a silently dropped field.
pub(crate) fn check_keys(value: &Value, allowed: &[&str], what: &str) -> Result<(), SpecError> {
    if let Value::Object(entries) = value {
        for (key, _) in entries {
            if !allowed.contains(&key.as_str()) {
                return err(format!(
                    "{what}: unknown key {key:?}; allowed: {}",
                    allowed.join(" ")
                ));
            }
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// Rebuilds a spec from a parsed JSON value. Every key [`Self::to_json`]
    /// writes is required (`fec` only when present), and no other key is
    /// accepted, at any level.
    pub(crate) fn from_value(value: &Value) -> Result<ScenarioSpec, SpecError> {
        let what = "scenario spec";
        check_keys(
            value,
            &[
                "name",
                "walls",
                "propagation",
                "stations",
                "interferers",
                "capture_margin_db",
                "fec",
                "packet_budget",
            ],
            what,
        )?;
        let mut spec = ScenarioSpec {
            name: want_str(value, "name", what)?.to_string(),
            ..ScenarioSpec::default()
        };
        for wall in want_array(value, "walls", what)? {
            check_keys(
                wall,
                &["x0_ft", "y0_ft", "x1_ft", "y1_ft", "material"],
                "wall",
            )?;
            spec.walls.push(WallSpec {
                x0_ft: want_f64(wall, "x0_ft", "wall")?,
                y0_ft: want_f64(wall, "y0_ft", "wall")?,
                x1_ft: want_f64(wall, "x1_ft", "wall")?,
                y1_ft: want_f64(wall, "y1_ft", "wall")?,
                material: want_str(wall, "material", "wall")?.to_string(),
            });
            material_from_name(&spec.walls.last().expect("just pushed").material)?;
        }
        let prop = want_object(value, "propagation", what)?;
        check_keys(prop, &["model", "shadowing_sigma_db"], "propagation")?;
        spec.propagation = PropagationSpec {
            model: want_str(prop, "model", "propagation")?.to_string(),
            shadowing_sigma_db: want_f64(prop, "shadowing_sigma_db", "propagation")?,
        };
        spec.propagation.build(0)?;
        for station in want_array(value, "stations", what)? {
            check_keys(
                station,
                &[
                    "role",
                    "x_ft",
                    "y_ft",
                    "receive_threshold",
                    "quality_threshold",
                    "interval_ns",
                    "frame_bytes",
                ],
                "station",
            )?;
            spec.stations.push(StationSpec {
                role: Role::from_name(want_str(station, "role", "station")?)?,
                x_ft: want_f64(station, "x_ft", "station")?,
                y_ft: want_f64(station, "y_ft", "station")?,
                receive_threshold: want_u64(station, "receive_threshold", "station")?.min(255)
                    as u8,
                quality_threshold: want_u64(station, "quality_threshold", "station")?.min(255)
                    as u8,
                interval_ns: want_u64(station, "interval_ns", "station")?,
                frame_bytes: want_u64(station, "frame_bytes", "station")?.min(65_535) as u16,
            });
        }
        for interferer in want_array(value, "interferers", what)? {
            check_keys(
                interferer,
                &[
                    "kind",
                    "power_dbm",
                    "duty_pct",
                    "period_bits",
                    "burst_sigma_db",
                ],
                "interferer",
            )?;
            let parsed = InterfererSpec {
                kind: want_str(interferer, "kind", "interferer")?.to_string(),
                power_dbm: want_f64(interferer, "power_dbm", "interferer")?,
                duty_pct: want_f64(interferer, "duty_pct", "interferer")?,
                period_bits: want_u64(interferer, "period_bits", "interferer")?,
                burst_sigma_db: want_f64(interferer, "burst_sigma_db", "interferer")?,
            };
            parsed.build()?;
            spec.interferers.push(parsed);
        }
        spec.capture_margin_db = want_f64(value, "capture_margin_db", what)?;
        if let Some(fec) = value.get("fec") {
            check_keys(fec, &["code_rate", "harq_rounds"], "fec")?;
            spec.fec = Some(FecSpec {
                code_rate: want_str(fec, "code_rate", "fec")?.to_string(),
                harq_rounds: want_u64(fec, "harq_rounds", "fec")?.min(u64::from(u32::MAX)) as u32,
            });
        }
        spec.packet_budget = want_u64(value, "packet_budget", what)?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layouts;

    fn oven_like() -> ScenarioSpec {
        let (plan, _, _) = layouts::hallway();
        ScenarioSpec::pair("oven-test", (0.0, 0.0), (7.0, 0.0), 2_900)
            .with_plan(&plan)
            .with_interferer(InterfererSpec::burst("wideband", -42.0, 25.0, 33_000))
            .with_outsiders()
    }

    #[test]
    fn json_round_trip_is_exact() {
        let spec = oven_like();
        let text = spec.to_json();
        let back = ScenarioSpec::from_value(&json::parse(&text).unwrap()).expect("parses");
        assert_eq!(spec, back);
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn field_paths_read_and_write() {
        let mut spec = oven_like();
        assert_eq!(spec.get_field("stations[1].x_ft").unwrap(), 7.0);
        assert_eq!(spec.get_field("interferers[0].duty_pct").unwrap(), 25.0);
        spec.set_field("interferers[0].duty_pct", 50.0).unwrap();
        spec.set_field("stations[1].frame_bytes", 512.4).unwrap();
        spec.set_field("packet_budget", 1_000.0).unwrap();
        assert_eq!(spec.interferers[0].duty_pct, 50.0);
        assert_eq!(spec.stations[1].frame_bytes, 512);
        assert_eq!(spec.packet_budget, 1_000);
        assert!(spec.set_field("stations[9].x_ft", 1.0).is_err());
        assert!(spec.set_field("nonsense", 1.0).is_err());
        // A failed write leaves the spec untouched.
        let before = spec.clone();
        assert!(spec.set_field("interferers[0].bogus", 1.0).is_err());
        assert_eq!(spec, before);
    }

    #[test]
    fn build_and_run_produces_metrics() {
        let spec = ScenarioSpec::pair("smoke", (0.0, 0.0), (7.0, 0.0), 1_440);
        let metrics = spec
            .run_in(Scale::Smoke, 7, &mut SimScratch::new())
            .expect("runs");
        assert_eq!(metrics.transmitted, Scale::Smoke.packets(1_440));
        assert!(metrics.received > 0);
        assert!(metrics.intact_pct > 90.0);
    }

    #[test]
    fn zero_duty_interferer_is_omitted() {
        let off = InterfererSpec::burst("wideband", -42.0, 0.0, 33_000);
        assert!(off.build().unwrap().is_none());
        let cont = InterfererSpec {
            kind: "narrowband".into(),
            power_dbm: -60.0,
            duty_pct: 100.0,
            period_bits: 0,
            burst_sigma_db: 0.0,
        };
        assert!(matches!(
            cont.build().unwrap(),
            Some(AmbientSource {
                duty: DutyCycle::Continuous,
                ..
            })
        ));
    }

    #[test]
    fn build_rejects_malformed_station_lists() {
        let mut spec = ScenarioSpec::pair("bad", (0.0, 0.0), (7.0, 0.0), 100);
        spec.stations.swap(0, 1);
        assert!(spec.build(1).is_err());
        let lonely = ScenarioSpec::pair("odd", (0.0, 0.0), (7.0, 0.0), 100)
            .with_station(StationSpec::new(Role::Outsider, -430.0, 60.0));
        assert!(lonely.build(1).is_err());
    }

    #[test]
    fn plan_round_trips_through_walls() {
        let m = layouts::multiroom();
        let spec = ScenarioSpec::pair("mr", (0.0, 0.0), (6.0, 6.5), 100).with_plan(&m.plan);
        assert_eq!(spec.walls.len(), m.plan.walls().len());
        let rebuilt = spec.floorplan().expect("builds");
        assert_eq!(rebuilt.walls().len(), m.plan.walls().len());
        for (a, b) in rebuilt.walls().iter().zip(m.plan.walls()) {
            assert_eq!(a.material, b.material);
            assert!((a.segment.a.x - b.segment.a.x).abs() < 1e-9);
            assert!((a.segment.b.y - b.segment.b.y).abs() < 1e-9);
        }
    }
}
