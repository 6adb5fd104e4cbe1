//! Property tests for `NonvolatileMemory` invariants under arbitrary
//! interleavings of write / overwrite / torn-write / power failure.

use ie_mcu::{McuError, NonvolatileMemory};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Write { key: usize, len: usize },
    TornWrite { key: usize, len: usize, committed: usize },
    PowerFailure,
}

const KEYS: [&str; 4] = ["a", "bb", "ckpt-a", "ckpt-b"];

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..3, 0usize..4, 0usize..48, 0usize..64).prop_map(
        |(kind, key, len, committed)| match kind {
            0 => Op::Write { key, len },
            1 => Op::TornWrite { key, len, committed },
            _ => Op::PowerFailure,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn used_bytes_never_exceeds_capacity_and_failed_writes_never_clobber(
        capacity in 8usize..96,
        ops in proptest::collection::vec(op_strategy(), 1..60),
        fill in 0u8..255,
    ) {
        let mut nv = NonvolatileMemory::new(capacity);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Write { key, len } => {
                    let key = KEYS[key];
                    let before: Option<Vec<u8>> = nv.read(key).map(<[u8]>::to_vec);
                    let data = vec![fill.wrapping_add(step as u8); len];
                    match nv.write(key, &data) {
                        Ok(()) => prop_assert_eq!(nv.read(key), Some(&data[..])),
                        Err(McuError::NonvolatileFull { .. }) => {
                            // A failed write must keep the previous value.
                            prop_assert_eq!(nv.read(key), before.as_deref());
                        }
                        Err(e) => prop_assert!(false, "unexpected error {:?}", e),
                    }
                }
                Op::TornWrite { key, len, committed } => {
                    let key = KEYS[key];
                    let before: Option<Vec<u8>> = nv.read(key).map(<[u8]>::to_vec);
                    let data = vec![fill.wrapping_add(step as u8); len];
                    match nv.write_torn(key, &data, committed) {
                        Ok(()) => {
                            let cell = nv.read(key).unwrap();
                            prop_assert_eq!(cell.len(), len, "torn cell has the new length");
                            let c = committed.min(len);
                            prop_assert_eq!(&cell[..c], &data[..c], "committed prefix holds");
                        }
                        Err(McuError::NonvolatileFull { .. }) => {
                            prop_assert_eq!(nv.read(key), before.as_deref());
                        }
                        Err(e) => prop_assert!(false, "unexpected error {:?}", e),
                    }
                }
                Op::PowerFailure => nv.power_failure(),
            }
            prop_assert!(
                nv.used_bytes() <= nv.capacity_bytes(),
                "step {}: used {} > capacity {}",
                step, nv.used_bytes(), nv.capacity_bytes()
            );
        }
    }

    #[test]
    fn over_capacity_write_preserves_other_keys(
        capacity in 4usize..32,
        first_len in 1usize..16,
    ) {
        let capacity = capacity.max(first_len);
        let mut nv = NonvolatileMemory::new(capacity);
        let first = vec![0x5A; first_len];
        nv.write("keep", &first).unwrap();
        let oversize = vec![0x77; capacity + 1];
        prop_assert!(nv.write("big", &oversize).is_err());
        prop_assert!(nv.write_torn("big", &oversize, 1).is_err());
        prop_assert_eq!(nv.read("keep"), Some(&first[..]), "failed writes never clobber");
        prop_assert_eq!(nv.read("big"), None);
        prop_assert!(nv.used_bytes() <= nv.capacity_bytes());
    }
}
