//! Parallel runs must be byte-identical to serial runs.
//!
//! Every experiment point owns its cache and reads the trace its
//! experiment built once before the fan-out, so fanning points across
//! workers cannot change any measured number. These tests pin that
//! contract: the result *structs* (every miss rate, deviation and
//! counter) and the *rendered tables* from `--jobs 4` must equal the
//! `--jobs 1` output exactly.

use molcache_bench::experiments::{ablations, fig5, fig6, table1, table2, table4, table5};
use molcache_bench::{Engine, ExperimentScale};

const SCALE: ExperimentScale = ExperimentScale::Custom(30_000);

#[test]
fn table1_parallel_matches_serial() {
    let serial = table1::run_with(SCALE, &Engine::serial());
    let parallel = table1::run_with(SCALE, &Engine::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.record().to_json(), parallel.record().to_json());
}

#[test]
fn fig5_parallel_matches_serial() {
    for graph in [fig5::Graph::A, fig5::Graph::B] {
        let serial = fig5::run_with(graph, SCALE, &Engine::serial());
        let parallel = fig5::run_with(graph, SCALE, &Engine::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.render(), parallel.render());
    }
}

#[test]
fn table2_and_table5_parallel_match_serial() {
    let serial = table2::run_with(SCALE, &Engine::serial());
    let parallel = table2::run_with(SCALE, &Engine::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render());
    // Table 5 is a pure function of Table 2, but pin the engine path too.
    let t5_serial = table5::run_with(SCALE, &Engine::serial());
    let t5_parallel = table5::run_with(SCALE, &Engine::new(4));
    assert_eq!(t5_serial, t5_parallel);
    assert_eq!(t5_serial.render(), t5_parallel.render());
}

#[test]
fn fig6_parallel_matches_serial() {
    let serial = fig6::run_with(SCALE, &Engine::serial());
    let parallel = fig6::run_with(SCALE, &Engine::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn table4_parallel_matches_serial() {
    let serial = table4::run_with(SCALE, &Engine::serial());
    let parallel = table4::run_with(SCALE, &Engine::new(4));
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn ablations_parallel_match_serial() {
    let scale = ExperimentScale::Custom(20_000);
    let serial = ablations::run_with(scale, &Engine::serial());
    let parallel = ablations::run_with(scale, &Engine::new(4));
    assert_eq!(serial, parallel);
    let rec_serial = ablations::record_with(scale, &Engine::serial());
    let rec_parallel = ablations::record_with(scale, &Engine::new(4));
    assert_eq!(rec_serial.to_json(), rec_parallel.to_json());
}

#[test]
fn oversubscribed_engine_matches_serial() {
    // More workers than points: the merge order must still hold.
    let serial = table2::run_with(SCALE, &Engine::serial());
    let parallel = table2::run_with(SCALE, &Engine::new(32));
    assert_eq!(serial, parallel);
}
