//! Golden pins of the lock flow's exact output.
//!
//! Functional checks cannot see which register pairs state re-encoding
//! picks: any pair preserves behaviour. These tests hash the written locked
//! netlist of a 20k-gate design, and pin every Table II row, so a change to
//! the register connection graph or to Algorithm 1's pair selection shows
//! up as a diff. Run them with optimized codegen (`cargo test --release`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use benchgen::CircuitProfile;
use trilock::TriLockConfig;
use trilock_bench::experiments::table2;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Generates the 20k-gate design, round-trips it through `.bench` as a
/// designer would hand it in, locks it with κs = 2, κf = 1, S = 10, and
/// hashes the written result.
fn locked_bench_hash(design_seed: u64) -> u64 {
    let design =
        benchgen::generate(&CircuitProfile::large(20_000), design_seed).expect("generates");
    let original = netlist::bench::parse(&netlist::bench::write(&design)).expect("re-parses");
    let mut rng = StdRng::seed_from_u64(1);
    let flow = trilock::lock(&original, &TriLockConfig::new(2, 1), &mut rng).expect("locks");
    assert_eq!(flow.reencode.num_pairs(), 10);
    fnv1a64(netlist::bench::write(&flow.locked.netlist).as_bytes())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode pin: run with --release")]
fn lock_of_a_20k_gate_design_is_byte_identical() {
    assert_eq!(locked_bench_hash(7), 0x1223_ca3f_201e_a518);
    assert_eq!(locked_bench_hash(8), 0xe3bd_a35f_928b_3c5e);
}

/// One Table II cell: `(S, O-SCCs, E-SCCs, M-SCCs, P_M)`.
type Cell = (usize, usize, usize, usize, f64);

/// Table II at its default configuration: per profile, one cell for each of
/// S = 0, 10, 30.
#[rustfmt::skip]
const TABLE2_ROWS: [(&str, [Cell; 3]); 10] = [
    ("s9234", [(0, 7, 52, 0, 0.0), (10, 0, 0, 7, 100.0), (30, 0, 0, 7, 100.0)]),
    ("s15850", [(0, 23, 43, 0, 0.0), (10, 12, 0, 10, 91.36690647482014), (30, 0, 0, 22, 100.0)]),
    ("s35932", [(0, 64, 52, 0, 0.0), (10, 52, 0, 10, 82.06896551724138), (30, 31, 0, 30, 90.60606060606061)]),
    ("s38417", [(0, 49, 52, 0, 0.0), (10, 35, 0, 10, 87.41007194244604), (30, 15, 0, 30, 95.28301886792453)]),
    ("s38584", [(0, 56, 37, 0, 0.0), (10, 45, 0, 10, 81.25), (30, 24, 0, 30, 91.42857142857143)]),
    ("b12", [(0, 4, 19, 0, 0.0), (10, 0, 0, 4, 100.0), (30, 0, 0, 4, 100.0)]),
    ("b14", [(0, 9, 52, 0, 0.0), (10, 0, 0, 9, 100.0), (30, 0, 0, 9, 100.0)]),
    ("b15", [(0, 14, 52, 0, 0.0), (10, 4, 0, 10, 96.89922480620154), (30, 0, 0, 14, 100.0)]),
    ("b18", [(0, 1005, 52, 0, 0.0), (10, 994, 0, 10, 62.06106870229008), (30, 969, 0, 30, 63.57142857142857)]),
    ("b20", [(0, 13, 52, 0, 0.0), (10, 2, 0, 10, 98.51851851851852), (30, 0, 0, 12, 100.0)]),
];

#[test]
#[cfg_attr(debug_assertions, ignore = "release-mode pin: run with --release")]
fn table2_rows_are_unchanged() {
    let result = table2::run(&table2::Config::default()).expect("table 2 runs");
    assert_eq!(result.rows.len(), TABLE2_ROWS.len());
    for (row, (name, expected)) in result.rows.iter().zip(TABLE2_ROWS) {
        assert_eq!(row.profile.name, name);
        let cells: Vec<Cell> = row
            .cells
            .iter()
            .map(|c| {
                (
                    c.pairs,
                    c.num_original,
                    c.num_extra,
                    c.num_mixed,
                    c.percent_mixed,
                )
            })
            .collect();
        assert_eq!(cells, expected, "{name}: Table II row changed");
    }
}
