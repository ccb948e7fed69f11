//! Machine-speed calibration for CPU-time figures.
//!
//! A shared host runs the same instructions at speeds up to ~1.7x apart,
//! for stretches from seconds to minutes (a busy sibling hyperthread, a
//! frequency step), and CPU-time clocks charge the slow stretches in full.
//! So between rounds the benchmark runs a fixed reference computation —
//! sorting, hashing, allocation and float math, none of it from the
//! repository — on one thread per CPU, and divides the program's CPU time
//! by the reference's: the same machine state slows both.

use crate::e2e::{process_cpu_s, thread_cpu_s};
use crate::workload::splitmix64;
use std::collections::BTreeMap;
use std::hint::black_box;

/// CPU seconds one [`run`] of the reference takes, summed over its threads,
/// on the reference machine (2-vCPU Xeon VM) at its undisturbed speed. It
/// only sets the scale: normalized figures read as CPU time on that
/// machine.
pub const NOMINAL_S: f64 = 0.003;

/// The reference computation: a fixed amount of work whose result depends
/// on every step, so none of it can be optimized away.
fn kernel(salt: u64) -> u64 {
    let mut keys: Vec<u64> = (0..4096u64).map(|i| splitmix64(salt ^ i)).collect();
    keys.sort_unstable();
    let mut map: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, &k) in keys.iter().enumerate().step_by(4) {
        map.insert(k >> 3, i as f64);
    }
    let mut acc = 0.0f64;
    for &k in &keys {
        if let Some(v) = map.get(&(k >> 3)) {
            acc += v.sqrt();
        }
        acc = (acc + (k & 0xffff) as f64).ln_1p();
    }
    let names: Vec<String> = keys.iter().step_by(16).map(|k| format!("{k:x}")).collect();
    keys[keys.len() / 2] ^ acc.to_bits() ^ names.iter().map(|s| s.len() as u64).sum::<u64>()
}

/// One calibration sample, taken while the program is idle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// CPU time the process used during the sample, all threads; the
    /// caller takes it out of the program's CPU time.
    pub process_s: f64,
    /// CPU time the reference threads used.
    pub reference_s: f64,
}

/// Runs the reference on one thread per CPU at once, so every CPU the
/// program ran on is sampled.
pub fn run() -> Sample {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let before = process_cpu_s();
    let reference_s: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let start = thread_cpu_s();
                    let mut out = 0;
                    for rep in 0..4 {
                        out ^= kernel(black_box(t as u64 * 4 + rep));
                    }
                    black_box(out);
                    thread_cpu_s() - start
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("calibration thread")).sum()
    });
    Sample { process_s: process_cpu_s() - before, reference_s }
}
