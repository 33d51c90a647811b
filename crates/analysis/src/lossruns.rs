//! Temporal structure of packet *loss*: run lengths over the recovered
//! sequence numbers.
//!
//! The paper reports only loss *rates*, but the structure of loss matters as
//! much as its amount: a transport protocol sees isolated single-packet
//! losses (the attenuation regime's AGC misses, the host floor) very
//! differently from multi-packet outages (a phone burst swallowing
//! consecutive packets, a jammer's on-period). This module reconstructs the
//! loss process from the sequence numbers the matcher recovered:
//!
//! * gaps between consecutive recovered sequence numbers are loss runs;
//! * [`LossRunReport`] summarizes run counts/lengths and a two-state
//!   burstiness verdict (how far from independent Bernoulli losses the
//!   process is).

use crate::classify::TraceAnalysis;

/// Loss-run statistics of one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct LossRunReport {
    /// Packets transmitted (denominator).
    pub transmitted: u64,
    /// Sequence numbers recovered (distinct, in order).
    pub received: usize,
    /// Total lost packets inferred from sequence gaps.
    pub lost: u64,
    /// Loss runs (consecutive missing sequence numbers).
    pub runs: usize,
    /// Mean run length (lost packets per run).
    pub mean_run_len: f64,
    /// Longest run.
    pub max_run_len: u64,
}

impl LossRunReport {
    /// Loss rate implied by the gaps.
    pub(crate) fn loss_rate(&self) -> f64 {
        if self.transmitted == 0 {
            return 0.0;
        }
        self.lost as f64 / self.transmitted as f64
    }

    /// Burstiness factor: mean run length relative to the expectation for
    /// independent losses at the same rate (`1 / (1 − p)`). ≈1 means the
    /// loss process is memoryless; ≫1 means outages.
    pub fn burstiness(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        let p = self.loss_rate();
        let iid_mean_run = 1.0 / (1.0 - p.min(0.999));
        self.mean_run_len / iid_mean_run
    }
}

/// Builds the loss-run report from an analyzed trace. Only test packets with
/// recovered sequence numbers participate; duplicates are ignored; the
/// stream is assumed to start at the first recovered sequence number (losses
/// before it are not observable) and end at `transmitted − 1`.
pub fn loss_runs(analysis: &TraceAnalysis) -> LossRunReport {
    let mut seqs: Vec<u32> = analysis.test_packets().filter_map(|p| p.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();

    let mut lost = 0u64;
    let mut runs = 0usize;
    let mut max_run = 0u64;
    for w in seqs.windows(2) {
        let gap = u64::from(w[1]) - u64::from(w[0]);
        if gap > 1 {
            let run = gap - 1;
            lost += run;
            runs += 1;
            max_run = max_run.max(run);
        }
    }
    // Tail losses: transmitted sequence numbers beyond the last received.
    if let Some(&last) = seqs.last() {
        let expected_last = analysis.transmitted.saturating_sub(1);
        if expected_last > u64::from(last) {
            let run = expected_last - u64::from(last);
            lost += run;
            runs += 1;
            max_run = max_run.max(run);
        }
    }

    LossRunReport {
        transmitted: analysis.transmitted,
        received: seqs.len(),
        lost,
        runs,
        mean_run_len: if runs == 0 {
            0.0
        } else {
            lost as f64 / runs as f64
        },
        max_run_len: max_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{AnalyzedPacket, PacketClass};

    fn analysis_with_seqs(seqs: &[u32], transmitted: u64) -> TraceAnalysis {
        TraceAnalysis {
            packets: seqs
                .iter()
                .map(|&s| AnalyzedPacket {
                    index: s as usize,
                    is_test: true,
                    class: PacketClass::Undamaged,
                    seq: Some(s),
                    body_bit_errors: 0,
                    body_bits_received: 8192,
                    level: 29,
                    silence: 3,
                    quality: 15,
                })
                .collect(),
            transmitted,
        }
    }

    #[test]
    fn no_loss_no_runs() {
        let a = analysis_with_seqs(&[0, 1, 2, 3, 4], 5);
        let r = loss_runs(&a);
        assert_eq!(r.lost, 0);
        assert_eq!(r.runs, 0);
        assert_eq!(r.loss_rate(), 0.0);
        assert_eq!(r.burstiness(), 1.0);
    }

    #[test]
    fn isolated_singles() {
        // 0 _ 2 _ 4 5 6 _ 8 9 (transmitted 10): three singleton runs.
        let a = analysis_with_seqs(&[0, 2, 4, 5, 6, 8, 9], 10);
        let r = loss_runs(&a);
        assert_eq!(r.lost, 3);
        assert_eq!(r.runs, 3);
        assert_eq!(r.mean_run_len, 1.0);
        assert_eq!(r.max_run_len, 1);
        // p = 0.3 → iid mean run ≈ 1.43; measured 1.0 → burstiness < 1.
        assert!(r.burstiness() < 1.0);
    }

    #[test]
    fn one_outage() {
        // 0 1 2 [3..=12 lost] 13 14 (transmitted 15).
        let a = analysis_with_seqs(&[0, 1, 2, 13, 14], 15);
        let r = loss_runs(&a);
        assert_eq!(r.lost, 10);
        assert_eq!(r.runs, 1);
        assert_eq!(r.max_run_len, 10);
        assert!(r.burstiness() > 3.0, "{}", r.burstiness());
    }

    #[test]
    fn tail_loss_counts_as_a_run() {
        let a = analysis_with_seqs(&[0, 1, 2], 10);
        let r = loss_runs(&a);
        assert_eq!(r.lost, 7);
        assert_eq!(r.runs, 1);
        assert_eq!(r.max_run_len, 7);
    }

    #[test]
    fn duplicates_are_ignored() {
        let a = analysis_with_seqs(&[0, 1, 1, 2, 2, 3], 4);
        let r = loss_runs(&a);
        assert_eq!(r.received, 4);
        assert_eq!(r.lost, 0);
    }
}
