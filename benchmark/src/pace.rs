//! Host pace: a fixed reference kernel, timed in short slices between the
//! measured stretches of a run, so that time metrics read at one host
//! speed.
//!
//! The benchmark runs on a few vCPUs of a shared machine. Other tenants
//! slow it by 10–30% for stretches from a fraction of a second to minutes;
//! the guest's steal counter does not show it, and its CPU time grows with
//! its wall time, so no statistic inside one run removes a slowdown that
//! lasts the whole run. Over 16 runs of `load` on 16 seeds on a 2-vCPU VM,
//! the interquartile range of the runs' median unit time was 8.1% of its
//! median; at reference pace it was 3.5%.
//!
//! The kernel does the same work in every slice and calls nothing of the
//! program, so its slice time measures the host alone. Every measured
//! stretch (a unit of work with the set-up rebuilt before it, or a stretch
//! of open-loop traffic) sits between two slices, and its times are scaled
//! by [`REFERENCE_SLICE_S`] ÷ the mean of those two slices: what they would
//! have been on a host running the kernel at its reference pace. A program
//! that gets slower by some share reads slower by that share at any host
//! pace.

use std::hint::black_box;
use std::time::Instant;

/// Words in each kernel thread's table: 1 MiB, so the random reads and
/// writes miss the first-level cache and mostly hit the second.
const TABLE_WORDS: usize = 1 << 18;
const MASK: usize = TABLE_WORDS - 1;

/// Interpreter steps per slice: about 25 ms on the reference host.
const SLICE_STEPS: u32 = 1_000_000;

/// Median time of one slice, one kernel thread per core, on the reference
/// host: a 2-vCPU VM on an Intel Xeon at 2.1 GHz.
pub const REFERENCE_SLICE_S: f64 = 0.025;

macro_rules! interpreter {
    ($($op:literal)*) => {
        /// One interpreter step. Each of the 256 opcodes has an arm of its
        /// own that mixes two registers with a table word and may write
        /// the table back.
        #[inline(never)]
        fn step(op: u8, r: &mut [u64; 8], table: &mut [u32]) {
            match op {
                $($op => {
                    let a = r[$op % 8];
                    let b = r[$op / 8 % 8];
                    let m = table[(a as usize ^ $op) & MASK];
                    r[($op * 3 + 1) % 8] =
                        a.wrapping_mul($op | 1).rotate_left($op % 61) ^ b.wrapping_add(u64::from(m));
                    if m & ($op + 1) == 0 {
                        table[b as usize & MASK] = m.wrapping_add($op);
                    }
                })*
            }
        }
    };
}

interpreter!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15
    16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
    32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47
    48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79
    80 81 82 83 84 85 86 87 88 89 90 91 92 93 94 95
    96 97 98 99 100 101 102 103 104 105 106 107 108 109 110 111
    112 113 114 115 116 117 118 119 120 121 122 123 124 125 126 127
    128 129 130 131 132 133 134 135 136 137 138 139 140 141 142 143
    144 145 146 147 148 149 150 151 152 153 154 155 156 157 158 159
    160 161 162 163 164 165 166 167 168 169 170 171 172 173 174 175
    176 177 178 179 180 181 182 183 184 185 186 187 188 189 190 191
    192 193 194 195 196 197 198 199 200 201 202 203 204 205 206 207
    208 209 210 211 212 213 214 215 216 217 218 219 220 221 222 223
    224 225 226 227 228 229 230 231 232 233 234 235 236 237 238 239
    240 241 242 243 244 245 246 247 248 249 250 251 252 253 254 255
);

/// A small interpreter running random opcodes: a mispredicted jump into a
/// few kilobytes of distinct arms, and random reads and writes of `table`.
/// A tight loop alone misses what slows the program most on a shared host:
/// over 16 runs each of `load` and `serve`, scaling by a tight loop of the
/// same table accesses left the runs' median `load` unit spread 5.4% and by
/// this kernel 3.5% (10.3% and 5.0% in the slower half of the runs).
fn kernel(table: &mut [u32], seed: u64) -> u64 {
    let mut r = [seed, 1, 2, 3, 4, 5, 6, 7];
    let mut x = seed | 1;
    for _ in 0..SLICE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        step((x >> 24) as u8, &mut r, table);
    }
    r.iter().fold(0, |acc, v| acc ^ v)
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

/// A stretch run between two slices.
#[derive(Debug)]
pub struct Paced<T> {
    /// What the stretch returned.
    pub value: T,
    /// Reference slice time ÷ the mean of the slices either side: multiply
    /// a time measured in the stretch by this to read it at reference pace.
    pub scale: f64,
}

/// Runs the kernel between measured stretches, on one thread per core as
/// the stretches do, and keeps every slice time.
pub struct Pacer {
    /// One table per kernel thread, kept so slices fault in no memory.
    tables: Vec<Vec<u32>>,
    /// The most recent slice, which precedes the next stretch.
    last: f64,
    slices: Vec<f64>,
}

impl Pacer {
    /// A pacer that has timed its first slice.
    pub fn new() -> Pacer {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut p = Pacer {
            tables: vec![vec![0; TABLE_WORDS]; threads],
            last: 0.0,
            slices: Vec::new(),
        };
        p.last = p.slice();
        p
    }

    fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        if let [table] = self.tables.as_mut_slice() {
            black_box(kernel(table, 1));
        } else {
            std::thread::scope(|s| {
                for (k, table) in (1..).zip(self.tables.iter_mut()) {
                    s.spawn(move || black_box(kernel(table, k)));
                }
            });
        }
        let secs = t0.elapsed().as_secs_f64();
        self.slices.push(secs);
        secs
    }

    /// Runs `f`, then a slice; the slice before it is the one that ended
    /// the previous stretch (or the pacer's first). `f` times what it
    /// measures itself.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Paced<T> {
        let value = f();
        let before = self.last;
        self.last = self.slice();
        Paced {
            value,
            scale: 2.0 * REFERENCE_SLICE_S / (before + self.last),
        }
    }

    /// Median slice time ÷ the reference: how much slower than its
    /// reference pace the host ran during this pacer's life.
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.slices) / REFERENCE_SLICE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stretch_sits_between_two_slices() {
        let mut p = Pacer::new();
        let a = p.time(|| 7);
        let b = p.time(|| ());
        assert_eq!(a.value, 7);
        assert_eq!(p.slices.len(), 3);
        assert_eq!(
            b.scale,
            2.0 * REFERENCE_SLICE_S / (p.slices[1] + p.slices[2])
        );
        assert!(p.slowdown() > 0.0);
    }

    #[test]
    fn the_kernel_repeats_its_work() {
        let mut a = vec![0; TABLE_WORDS];
        let mut b = vec![0; TABLE_WORDS];
        assert_eq!(kernel(&mut a, 3), kernel(&mut b, 3));
        assert_eq!(a, b);
        assert!(a.iter().any(|&w| w != 0), "the kernel writes its table");
    }
}
