//! The per-layer split of a traced run.
//!
//! Most layers are reachable only inside `Experiment::run`, so the traced
//! run measures them from outside in two ways:
//!
//! 1. [`split`] re-runs each artifact's canonical spec through
//!    `Scenario::run_streamed`, wrapping the `StreamAnalysis` sink in a
//!    timing sink: simulator self time is the `run_streamed` span minus the
//!    sink's time, and the trial result gives the record, transmission and
//!    MAC counts.
//! 2. [`replays`] calls each layer's public function on inputs shaped like
//!    the workload's and reports the cost per call, next to the call count
//!    from step 1.

use crate::stats::percentile;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wavelan_analysis::tracecodec::{TraceMeta, TraceReader, TraceWriter};
use wavelan_analysis::StreamAnalysis;
use wavelan_core::experiments::common::expected_series;
use wavelan_core::{spec_hash, trial_seed, Executor, Scale, ScenarioSpec};
use wavelan_sim::{RecordView, SimScratch, StationId, TraceSink};

/// One canonical trial: a spec, its packet budget and seed.
#[derive(Debug, Clone)]
pub struct Trial {
    /// What the trial stands for (artifact name or sweep point).
    pub label: String,
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Packets the sender transmits.
    pub packets: u64,
    /// Trial seed.
    pub seed: u64,
}

impl Trial {
    /// Trial `index` of `spec` at `scale`, seeded the way the capture
    /// pipeline seeds its trials.
    pub fn of(label: &str, spec: ScenarioSpec, scale: Scale, seed: u64, index: u64) -> Trial {
        Trial {
            label: label.to_string(),
            packets: scale.packets(spec.packet_budget),
            seed: trial_seed(spec_hash(&spec), index, seed),
            spec,
        }
    }

    /// The first canonical trial of each named registry artifact.
    pub fn artifacts(names: &[&str], scale: Scale, seed: u64) -> Vec<Trial> {
        names
            .iter()
            .map(|name| {
                let entry = wavelan_core::find(name).expect("benchmark names registered artifacts");
                Trial::of(name, entry.spec(), scale, seed, 1)
            })
            .collect()
    }
}

/// One named per-layer measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How often the measured call happens in the canonical re-run, where
    /// that is known.
    pub calls: Option<u64>,
}

fn layer(name: &'static str, value: f64, unit: &'static str, calls: Option<u64>) -> Layer {
    Layer {
        name,
        value,
        unit,
        calls,
    }
}

/// What one canonical trial did.
#[derive(Debug, Clone, Default)]
pub struct TrialSplit {
    /// Trial label.
    pub label: String,
    /// Receiver records folded.
    pub records: u64,
    /// Transmissions by every station.
    pub transmissions: u64,
    /// Carrier-sense attempts that found the medium busy.
    pub deferrals: u64,
    /// Transmissions begun over a foreign one.
    pub overlaps: u64,
    /// Locked packets abandoned for a stronger one.
    pub captures: u64,
    /// `ScenarioSpec::build` time.
    pub build: Duration,
    /// The whole `run_streamed` span.
    pub run: Duration,
    /// Time inside the analysis sink.
    pub fold: Duration,
}

impl TrialSplit {
    /// Simulator self time: the run span minus the sink's share.
    pub fn sim(&self) -> Duration {
        self.run.saturating_sub(self.fold)
    }
}

/// Forwards records to the analysis fold and times it.
struct TimedFold<'a> {
    fold: &'a mut StreamAnalysis,
    spent: Duration,
}

impl TraceSink for TimedFold<'_> {
    fn record(&mut self, station: StationId, view: &RecordView<'_>) {
        let start = Instant::now();
        self.fold.record(station, view);
        self.spent += start.elapsed();
    }
}

/// Encodes the receiver's records and times each push.
struct TimedWriter<'a> {
    writer: &'a mut TraceWriter<Vec<u8>>,
    station: StationId,
    spent: Duration,
    records: u64,
}

impl TraceSink for TimedWriter<'_> {
    fn record(&mut self, station: StationId, view: &RecordView<'_>) {
        if station == self.station {
            let start = Instant::now();
            self.writer
                .push(view)
                .expect("encoding into memory cannot fail");
            self.spent += start.elapsed();
            self.records += 1;
        }
    }
}

/// Runs one trial serially, timing the fold.
fn timed_trial(trial: &Trial, scratch: &mut SimScratch) -> TrialSplit {
    let start = Instant::now();
    let (scenario, rx, tx) = trial.spec.build(trial.seed).expect("canonical specs build");
    let build = start.elapsed();
    let mut fold = StreamAnalysis::new(expected_series(), rx);
    let mut sink = TimedFold {
        fold: &mut fold,
        spent: Duration::ZERO,
    };
    let start = Instant::now();
    let result = scenario.run_streamed(tx, trial.packets, scratch, &mut sink);
    let run = start.elapsed();
    let spent = sink.spent;
    TrialSplit {
        label: trial.label.clone(),
        records: black_box(fold.records()),
        transmissions: result.packets_transmitted.iter().sum(),
        deferrals: result.mac_stats.iter().map(|m| m.collisions).sum(),
        overlaps: result.overlap_count,
        captures: result.captures_made.iter().sum(),
        build,
        run,
        fold: spent,
    }
}

/// Runs every trial without timing hooks on `exec`, returning wall time.
fn plain_wall(trials: &[Trial], exec: &Executor) -> Duration {
    let start = Instant::now();
    let records: u64 = exec
        .map_indices_with(trials.len(), SimScratch::new, |scratch, i| {
            let t = &trials[i];
            let (scenario, rx, tx) = t.spec.build(t.seed).expect("canonical specs build");
            let mut fold = StreamAnalysis::new(expected_series(), rx);
            scenario.run_streamed(tx, t.packets, scratch, &mut fold);
            fold.records()
        })
        .into_iter()
        .sum();
    black_box(records);
    start.elapsed()
}

/// Packets the codec measurement's shortened trial sends at most, which
/// bounds the memory the encoded trace takes.
const CODEC_PACKETS: u64 = 20_000;

/// The canonical re-run: per-trial splits plus the layer metrics they give.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// One row per trial.
    pub trials: Vec<TrialSplit>,
    /// Layer metrics from the re-run.
    pub layers: Vec<Layer>,
}

/// Re-runs `trials` serially with the fold timed, encodes and decodes the
/// records of the first trial shortened to [`CODEC_PACKETS`] packets, and
/// times the trial set at one and two executor workers.
pub fn split(trials: &[Trial]) -> Split {
    let mut scratch = SimScratch::new();
    let rows: Vec<TrialSplit> = trials
        .iter()
        .map(|t| timed_trial(t, &mut scratch))
        .collect();
    let sum = |f: fn(&TrialSplit) -> u64| rows.iter().map(f).sum::<u64>();
    let nanos =
        |f: fn(&TrialSplit) -> Duration| rows.iter().map(f).sum::<Duration>().as_nanos() as f64;
    let records = sum(|r| r.records);
    let transmissions = sum(|r| r.transmissions);
    let per = |total: f64, count: u64| total / count.max(1) as f64;

    let codec = codec_costs(&trials[0], &mut scratch);
    let serial = plain_wall(trials, &Executor::new(1));
    let parallel = plain_wall(trials, &Executor::new(2));

    let layers = vec![
        layer(
            "core.spec_build_us",
            per(nanos(|r| r.build), rows.len() as u64) / 1e3,
            "us",
            Some(rows.len() as u64),
        ),
        layer(
            "core.jobs_speedup",
            serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9),
            "x",
            Some(rows.len() as u64),
        ),
        layer(
            "sim.self_ns_per_record",
            per(nanos(TrialSplit::sim), records),
            "ns",
            Some(records),
        ),
        layer("sim.records", records as f64, "count", None),
        layer("sim.transmissions", transmissions as f64, "count", None),
        layer(
            "sim.records_per_tx",
            records as f64 / transmissions.max(1) as f64,
            "ratio",
            None,
        ),
        layer(
            "mac.deferrals_per_tx",
            per(sum(|r| r.deferrals) as f64, transmissions),
            "ratio",
            Some(transmissions),
        ),
        layer("mac.overlaps", sum(|r| r.overlaps) as f64, "count", None),
        layer("mac.captures", sum(|r| r.captures) as f64, "count", None),
        layer(
            "analysis.fold_ns_per_record",
            per(nanos(|r| r.fold), records),
            "ns",
            Some(records),
        ),
        layer(
            "analysis.codec_write_ns_per_record",
            codec.write_ns,
            "ns",
            Some(codec.records),
        ),
        layer(
            "analysis.codec_read_ns_per_record",
            codec.read_ns,
            "ns",
            Some(codec.records),
        ),
        layer(
            "analysis.trace_bytes_per_record",
            codec.bytes,
            "B",
            Some(codec.records),
        ),
    ];
    Split {
        trials: rows,
        layers,
    }
}

/// Per-record WLTC costs.
struct Codec {
    records: u64,
    write_ns: f64,
    read_ns: f64,
    bytes: f64,
}

/// Encodes the receiver records of a shortened copy of `trial` into memory
/// and decodes them back.
fn codec_costs(trial: &Trial, scratch: &mut SimScratch) -> Codec {
    let (scenario, rx, tx) = trial.spec.build(trial.seed).expect("canonical specs build");
    let meta = TraceMeta {
        artifact: trial.label.clone(),
        scale: String::from("benchmark"),
        seed: trial.seed,
        spec_hash: spec_hash(&trial.spec),
        packet_budget: trial.packets,
    };
    let mut writer = TraceWriter::new(Vec::new(), &meta).expect("in-memory header");
    writer.begin_stream("trial-1").expect("in-memory stream");
    let mut sink = TimedWriter {
        writer: &mut writer,
        station: rx,
        spent: Duration::ZERO,
        records: 0,
    };
    let result = scenario.run_streamed(tx, trial.packets.min(CODEC_PACKETS), scratch, &mut sink);
    let (write, records) = (sink.spent, sink.records);
    writer
        .end_stream(
            result.packets_transmitted[tx],
            result.packets_dropped_by_mac[tx],
        )
        .expect("in-memory stream end");
    let bytes = writer.finish().expect("in-memory finish");
    let start = Instant::now();
    let mut reader = TraceReader::open(&bytes[..]).expect("own encoding decodes");
    let mut decoded = 0u64;
    while reader
        .next_stream()
        .expect("own encoding decodes")
        .is_some()
    {
        reader
            .for_each_record(|view| decoded += black_box(view.bytes.len()) as u64)
            .expect("own encoding decodes");
    }
    let read = start.elapsed();
    black_box(decoded);
    let n = records.max(1) as f64;
    Codec {
        records,
        write_ns: write.as_nanos() as f64 / n,
        read_ns: read.as_nanos() as f64 / n,
        bytes: bytes.len() as f64 / n,
    }
}

/// Median nanoseconds per call of `f`, over five batches that together
/// take about `budget`.
pub fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let start = Instant::now();
    let mut probe = 0u32;
    while probe < 10 || start.elapsed() < Duration::from_micros(200) {
        f();
        probe += 1;
    }
    let each = start.elapsed().as_nanos().max(1) / u128::from(probe);
    let batch = ((budget.as_nanos() / 5) / each.max(1)).clamp(1, 10_000_000) as u32;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(batch)
        })
        .collect();
    percentile(&samples, 50.0).expect("five samples")
}

/// The layer replays: each layer's public function on workload-shaped
/// inputs. `document` is a result document of the workload (the store
/// replays persist and load it); `serialize` re-serializes the workload's
/// reports and returns the byte count; `split` supplies the call counts.
pub fn replays(
    budget: Duration,
    document: &str,
    serialize: &dyn Fn() -> usize,
    split: &Split,
    scratch_dir: &Path,
) -> Vec<Layer> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wavelan_fec::convolutional::{bytes_to_bits, ConvolutionalEncoder};
    use wavelan_fec::harq::run_harq_encoded_with;
    use wavelan_fec::{FecScratch, ViterbiDecoder};
    use wavelan_net::testpkt::{Endpoint, TestPacket};
    use wavelan_phy::interference::{Emission, InterferenceKind};
    use wavelan_phy::link::{LinkModel, PacketOutcome};
    use wavelan_phy::RxScratch;
    use wavelan_sim::event::{Event, EventQueue};
    use wavelan_store::{DiskStore, StoreKey, TieredStore};

    let count = |name: &str| {
        split
            .layers
            .iter()
            .find(|l| l.name == name)
            .map(|l| l.value as u64)
    };
    let (records, transmissions) = (count("sim.records"), count("sim.transmissions"));
    let mut out = Vec::new();

    // PHY: one 1,070-byte test frame, clean and under a stationary
    // spread-spectrum-phone jam (bursts clear of the preamble).
    const FRAME_BITS: u64 = 8_560;
    let model = LinkModel::default();
    let jam: Vec<Emission> = (0..)
        .map(|k| 400 + 1_400 * k)
        .take_while(|&start| start < FRAME_BITS)
        .map(|start| Emission {
            start_bit: start,
            end_bit: (start + 700).min(FRAME_BITS),
            raw_dbm: -72.0,
            kind: InterferenceKind::WidebandInBand,
        })
        .collect();
    for (name, signal_dbm, emissions) in [
        ("phy.receive_ns_clean", -48.0, Vec::new()),
        ("phy.receive_ns_jam", -62.0, jam),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = RxScratch::new();
        let ns = ns_per_call(budget, || {
            let mut outcome = model.receive_with(
                signal_dbm,
                black_box(&emissions),
                FRAME_BITS,
                &mut rng,
                &mut scratch,
            );
            if let PacketOutcome::Received(ref mut r) = outcome {
                scratch.recycle_error_buf(std::mem::take(&mut r.error_bits));
            }
        });
        out.push(layer(name, ns, "ns", transmissions));
    }

    // Event queue: schedule + pop against a queue holding a few pending
    // events, as a handful of stations keep it.
    let mut queue = EventQueue::new();
    for s in 0..4 {
        queue.schedule(
            s,
            Event::MacAttempt {
                station: s as usize,
            },
        );
    }
    let mut clock = 4u64;
    let ns = ns_per_call(budget, || {
        clock += 1_000;
        queue.schedule(clock, Event::TxEnd { tx: clock as usize });
        black_box(queue.pop());
    });
    out.push(layer("sim.event_queue_ns_per_op", ns, "ns", transmissions));

    // Framing: build a test frame, and CRC-32 it.
    let (src, dst) = (Endpoint::station(2), Endpoint::station(1));
    let mut seq = 0u32;
    let ns = ns_per_call(budget, || {
        seq = seq.wrapping_add(1);
        black_box(TestPacket { seq }.build_frame(src, dst));
    });
    out.push(layer("net.build_frame_ns", ns, "ns", transmissions));
    let frame = TestPacket { seq: 1996 }.build_frame(src, dst);
    let ns = ns_per_call(budget, || {
        black_box(wavelan_net::crc32::crc32(black_box(&frame)));
    });
    out.push(layer("net.crc32_ns_per_frame", ns, "ns", records));

    // Reports: re-serializing the workload's documents.
    let ns = ns_per_call(budget, || {
        black_box(serialize());
    });
    out.push(layer("analysis.report_ms", ns / 1e6, "ms", None));

    // FEC: a 1,024-byte frame's terminated mother codeword with 2% hard
    // bit flips, decoded; and one IR-HARQ exchange over the same channel.
    let payload: Vec<u8> = (0..1_024).map(|i| (i * 29) as u8).collect();
    let mother = ConvolutionalEncoder::new().encode_terminated(&bytes_to_bits(&payload));
    let mut rng = StdRng::seed_from_u64(11);
    let soft: Vec<f64> = mother
        .iter()
        .map(|&b| {
            let tx = if b == 1 { 1.0 } else { -1.0 };
            if rng.gen::<f64>() < 0.02 {
                -tx
            } else {
                tx
            }
        })
        .collect();
    let decoder = ViterbiDecoder::new();
    let mut fec = FecScratch::new();
    let mut decoded = Vec::new();
    let ns = ns_per_call(budget, || {
        decoder.decode_terminated_with(black_box(&soft), &mut fec, &mut decoded);
    });
    out.push(layer("fec.decode_us_per_frame", ns / 1e3, "us", None));
    let mut rng = StdRng::seed_from_u64(13);
    let ns = ns_per_call(budget, || {
        black_box(run_harq_encoded_with(
            &payload,
            black_box(&mother),
            12,
            |bit| {
                let tx = if bit == 1 { 1.0 } else { -1.0 };
                if rng.gen::<f64>() < 0.02 {
                    -tx
                } else {
                    tx
                }
            },
            &mut fec,
        ));
    });
    out.push(layer("fec.harq_exchange_us", ns / 1e3, "us", None));

    // Store: an L1 hit, an L2 load and a put of the workload's document.
    let key = StoreKey::run("benchmark", 1, "replay");
    let body = Arc::new(document.to_string());
    let tier = TieredStore::memory_only(256);
    tier.insert(&key, 0, Arc::clone(&body));
    let ns = ns_per_call(budget, || {
        black_box(tier.get(&key, 0));
    });
    out.push(layer("store.l1_get_ns", ns, "ns", None));
    let disk = DiskStore::open(scratch_dir).expect("replay store directory");
    disk.put(&key, 0, document).expect("replay store put");
    let ns = ns_per_call(budget, || {
        black_box(disk.load(&key).expect("replay store load"));
    });
    out.push(layer("store.l2_load_us", ns / 1e3, "us", None));
    let ns = ns_per_call(budget, || {
        disk.put(&key, 0, black_box(document))
            .expect("replay store put");
    });
    out.push(layer("store.put_us", ns / 1e3, "us", None));
    out
}

/// The selected Viterbi kernel, recorded with the FEC replay.
pub fn fec_kernel() -> &'static str {
    wavelan_fec::ViterbiDecoder::new().kernel_name()
}
