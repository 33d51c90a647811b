//! The harness's own determinism contract: the same configuration must
//! serialize to bit-identical `FidelityReport` JSON on every run, at any
//! worker count. CI diffs `FIDELITY.json` across machines and the
//! multi-seed aggregation must not introduce order- or timing-dependent
//! bytes.

use wavelan_analysis::json::to_string_pretty;
use wavelan_core::{Executor, Scale};
use wavelan_validate::{run, Config};

#[test]
fn three_seed_validate_is_bit_identical_across_runs_and_workers() {
    let config = Config {
        scale: Scale::Smoke,
        base_seed: 1996,
        seeds: 3,
    };
    let serial = to_string_pretty(&run(&config, &Executor::new(1)));
    let parallel = to_string_pretty(&run(&config, &Executor::new(2)));
    assert_eq!(
        serial, parallel,
        "FidelityReport JSON differs between runs / worker counts"
    );
    assert!(serial.contains("\"base_seed\": 1996"));
    assert!(serial.contains("\"seeds\": 3"));
}
