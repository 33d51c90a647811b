//! Trace capture and dissection: run a noisy trial, persist the promiscuous
//! trace to disk in the WLTC columnar format, reload it, and print a
//! tcpdump-style dissection of interesting packets — plus the burst-level
//! error characterization that drives FEC/interleaver choices.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter};
use wavelan_repro::analysis::tracecodec::{TraceMeta, TraceReader, TraceWriter};
use wavelan_repro::analysis::{analyze, burst_report, ExpectedSeries, PacketClass};
use wavelan_repro::experiments::calibration;
use wavelan_repro::mac::network_id::{strip_network_id, NetworkId};
use wavelan_repro::net::testpkt::Endpoint;
use wavelan_repro::net::EthernetFrame;
use wavelan_repro::sim::runner::attach_tx_count;
use wavelan_repro::sim::trace::{Trace, TraceRecord};
use wavelan_repro::sim::{Point, Propagation, ScenarioBuilder, StationConfig};

fn main() {
    // ── Capture: a link under intermediate SS-phone interference. ──
    let mut b = ScenarioBuilder::new(7);
    let rx = b.station(StationConfig::receiver(
        Endpoint::station(1),
        Point::feet(0.0, 0.0),
    ));
    let tx = b.station(StationConfig::sender(
        Endpoint::station(2),
        Point::feet(12.0, 0.0),
        rx,
    ));
    b.ambient(calibration::ss_phone_handset_only());
    b.ambient(calibration::ss_phone_handset_residual());
    let mut scenario = b.build();
    let mut prop = Propagation::indoor(7);
    prop.shadowing_sigma_db = 0.0;
    scenario.propagation = prop;
    let mut result = scenario.run(tx, 600);
    attach_tx_count(&mut result, rx, tx);
    let trace = result.trace(rx).clone();

    // ── Persist and reload: one WLTC stream for the receiver's log. ──
    let path = std::env::temp_dir().join("wavelan_demo.wltc");
    let meta = TraceMeta {
        artifact: String::from("trace_dump"),
        scale: String::from("demo"),
        seed: 7,
        spec_hash: 0,
        packet_budget: 600,
    };
    let file = BufWriter::new(File::create(&path).expect("create trace file"));
    let mut writer = TraceWriter::new(file, &meta).expect("write header");
    writer.begin_stream("rx").expect("open stream");
    for record in &trace.records {
        writer.push(&record.view()).expect("write record");
    }
    writer
        .end_stream(trace.packets_transmitted, trace.packets_dropped_by_mac)
        .expect("close stream");
    writer.finish().expect("write footer");
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let file = BufReader::new(File::open(&path).expect("open trace file"));
    let mut reader = TraceReader::open(file).expect("read header");
    reader
        .next_stream()
        .expect("read stream")
        .expect("one stream");
    let mut reloaded = Trace::default();
    let tail = reader
        .for_each_record(|view| reloaded.push(view.to_record()))
        .expect("read records");
    reloaded.packets_transmitted = tail.transmitted;
    reloaded.packets_dropped_by_mac = tail.dropped_by_mac;
    // WLTC keeps what a real capture has and drops the simulator's ground
    // truth, so the reload equals the capture with `truth` cleared.
    let captured: Vec<TraceRecord> = trace
        .records
        .iter()
        .map(|r| TraceRecord {
            truth: None,
            ..r.clone()
        })
        .collect();
    assert_eq!(reloaded.records, captured);
    println!(
        "captured {} packets → {} ({size} bytes), reloaded bit-identically\n",
        trace.len(),
        path.display()
    );

    // ── Dissect: first few packets of each damage class. ──
    let expected = ExpectedSeries {
        src: Endpoint::station(2),
        dst: Endpoint::station(1),
        network_id: NetworkId::TESTBED,
    };
    let analysis = analyze(&reloaded, &expected);
    println!("time(ms)  len   lvl sil q  class        src → dst");
    let mut shown = std::collections::HashMap::new();
    for p in &analysis.packets {
        let count = shown.entry(p.class).or_insert(0usize);
        if *count >= 3 {
            continue;
        }
        *count += 1;
        let r = &reloaded.records[p.index];
        let (src, dst) = match strip_network_id(&r.bytes).map(|(_, eth)| EthernetFrame::parse(eth))
        {
            Some(Ok(f)) => (f.src.to_string(), f.dst.to_string()),
            _ => ("?".into(), "?".into()),
        };
        println!(
            "{:>8.2} {:>5} {:>4} {:>3} {:>2}  {:<12} {src} → {dst}{}",
            r.time_ns as f64 / 1e6,
            r.bytes.len(),
            r.level,
            r.silence,
            r.quality,
            format!("{:?}", p.class),
            match p.body_bit_errors {
                0 => String::new(),
                n => format!("  [{n} corrupted bits]"),
            }
        );
    }

    // ── Characterize the error process. ──
    let report = burst_report(&reloaded, &analysis, 64);
    println!(
        "\nerror process: BER {:.2e} over {} body bits; {} bursts, mean {:.1} bits \
         (max {}), {:.1} errors/burst",
        report.ber(),
        report.bits,
        report.bursts,
        report.mean_burst_len,
        report.max_burst_len,
        report.errors_per_burst
    );
    if let Some(ge) = report.fitted {
        println!(
            "fitted Gilbert–Elliott: P(G→B) {:.2e}, P(B→G) {:.2e}, BER bad {:.3}, \
             mean burst sojourn {:.0} bits",
            ge.p_good_to_bad,
            ge.p_bad_to_good,
            ge.ber_bad,
            ge.mean_bad_sojourn()
        );
    }
    println!(
        "recommended interleaver depth: {} rows",
        report.recommended_interleaver_rows()
    );
    let _ = analysis.count(PacketClass::Undamaged);
    std::fs::remove_file(&path).ok();
}
