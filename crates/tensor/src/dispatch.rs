//! Runtime ISA dispatch: one binary, the best kernel the machine can run.
//!
//! The hot kernels of this crate (GEMM, matvec, max-pool, softmax,
//! the quantize/dequantize epilogues, the two integer GEMMs and the training
//! kernels) each exist in up to three **tiers**:
//!
//! | tier | requires | what it buys |
//! |------|----------|--------------|
//! | [`IsaTier::Portable`] | nothing (baseline x86-64 / any arch) | safe Rust, LLVM autovectorization at the baseline width |
//! | [`IsaTier::Avx2`] | AVX2 (+FMA present, unused — see below) | 8-lane `f32` kernels via explicit or recompiled-for-AVX2 code; the integer GEMMs on 256-bit `vpmaddwd` (two `i16` MACs per `i32` lane) + `vpaddd`: the convolution's 4×16 register tile of broadcast weight pairs against interleaved `i8` column pairs, the dense layer's contiguous dot |
//! | [`IsaTier::Vnni`] | AVX-512 F/BW/VL/VNNI | both integer GEMMs at 512-bit width (twice AVX2's lanes per instruction): the convolution's 8×32 register tile, whose last `n % 32` columns run the AVX2 strips, and the dense layer's dot. Both are written with `vpdpwssd`, which fuses `vpmaddwd`'s multiply-add-pairs with the accumulate, but LLVM's generic tuning compiles most of them to `vpmaddwd` + `vpaddd` (14 of 16 per depth pair in the conv tile, 3 of 4 in the dot) |
//!
//! # One dispatch point
//!
//! Every kernel entry point hands its call to the crate-private `tiered!`
//! macro, the only code that decides whether a tier may run: it clamps the
//! requested tier to the hardware and makes the one `unsafe` call per tier
//! (AVX2, VNNI) that the clamp justifies. Most kernels have one portable
//! `#[inline(always)]` body, which the macro recompiles inside a named
//! `#[target_feature(enable = "avx2")]` function — the compiler vectorizes
//! the same loops 8 lanes wide, with the same per-element operations. The
//! kernels where that code timed slower than hand-written intrinsics (the
//! 2×2 pools, ReLU and its backward, softmax, the activation quantize, both
//! requantize epilogues and the two integer GEMMs) keep explicit AVX2 (and
//! VNNI) functions; the macro calls those instead.
//!
//! The running machine's best supported tier is detected once with `cpuid`
//! (via `is_x86_feature_detected!`) and cached in a [`std::sync::OnceLock`];
//! after the first call a dispatch decision is a single atomic load. The
//! historical alternative — a static `-C target-feature=+avx2` in
//! `.cargo/config.toml` — produced an illegal-instruction trap on pre-AVX2
//! machines and silently benchmarked baseline code everywhere the flag was
//! not set; runtime dispatch replaces it.
//!
//! # Bit-identity across tiers
//!
//! Every tiered kernel produces **bit-identical** results on every tier (this
//! is property-tested; see `tests/tier_equivalence.rs`):
//!
//! * integer kernels accumulate in wrapping `i32`, which is associative, so
//!   any vector re-blocking is exact;
//! * `f32` kernels fix one reduction order per output element (ascending
//!   depth in the GEMMs, an 8-lane tree in the dot products and softmax
//!   reductions) and every tier implements exactly that order;
//! * elementwise `f32` steps (quantize, dequantize, relu, scale) round each
//!   element through the same sequence of individually rounded operations —
//!   in particular no tier contracts `mul + add` into an FMA, which would
//!   change results;
//! * max-style folds use the `vmaxps`/`vpmaxs*` select `if v > acc { v }`
//!   in every tier, so NaN and `-0.0` ties resolve identically.
//!
//! # Overriding for tests and benchmarks
//!
//! The `IE_ISA` environment variable forces a *lower* tier: `portable`,
//! `avx2` or `vnni` (case-insensitive; read through [`crate::knobs::read`]
//! like every knob, so an unknown value warns once and keeps the detected
//! tier). The override never raises the tier above what the hardware
//! supports — `IE_ISA=vnni` on an AVX2-only machine runs the AVX2 tier — so
//! it is always safe to set. The CI portable-tier job runs the whole test
//! suite under `IE_ISA=portable` to keep the fallback green, and in-process
//! tests iterate [`supported_tiers`] through the explicit-tier kernel entry
//! points instead.

use std::sync::OnceLock;

/// An instruction-set tier a kernel can be dispatched to, ordered from the
/// universal baseline to the most capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IsaTier {
    /// Safe Rust, no feature requirements beyond the compile target.
    Portable,
    /// AVX2 256-bit integer/float vectors (x86-64).
    Avx2,
    /// AVX-512 VNNI (`vpdpwssd`) on top of AVX-512 F/BW/VL (x86-64).
    Vnni,
}

impl IsaTier {
    /// Stable lower-case name of the tier (`portable` / `avx2` / `vnni`),
    /// used by the `IE_ISA` override and reported in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Portable => "portable",
            IsaTier::Avx2 => "avx2",
            IsaTier::Vnni => "vnni",
        }
    }

    /// Parses a tier name as accepted by the `IE_ISA` override.
    pub fn parse(name: &str) -> Option<IsaTier> {
        match name.trim().to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(IsaTier::Portable),
            "avx2" => Some(IsaTier::Avx2),
            "vnni" | "avx512vnni" | "avx512-vnni" => Some(IsaTier::Vnni),
            _ => None,
        }
    }
}

/// Best tier the running machine supports, detected once via `cpuid`. A
/// tier is returned only with every lower tier's features too, so any tier
/// at or above `Avx2` means AVX2 is present — the ordering `tiered!`'s
/// SAFETY arguments rely on.
#[cfg(target_arch = "x86_64")]
fn detect() -> IsaTier {
    if !std::is_x86_feature_detected!("avx2") {
        IsaTier::Portable
    } else if std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512bw")
        && std::is_x86_feature_detected!("avx512vl")
        && std::is_x86_feature_detected!("avx512vnni")
    {
        IsaTier::Vnni
    } else {
        IsaTier::Avx2
    }
}

/// Non-x86-64 targets have exactly one tier.
#[cfg(not(target_arch = "x86_64"))]
fn detect() -> IsaTier {
    IsaTier::Portable
}

/// Best tier the running machine supports (cached; the `IE_ISA` override
/// does **not** affect this).
pub fn detected() -> IsaTier {
    static DETECTED: OnceLock<IsaTier> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// The tier the auto-dispatched kernels run: the detected tier, lowered by a
/// valid `IE_ISA` override. Cached after the first call (the environment is
/// read once per process), so a dispatch decision costs one atomic load.
pub fn active() -> IsaTier {
    static ACTIVE: OnceLock<IsaTier> = OnceLock::new();
    *ACTIVE
        .get_or_init(|| resolve(detected(), crate::knobs::read("IE_ISA", ISA_WANT, IsaTier::parse)))
}

/// What the `IE_ISA` knob accepts, as its warning states it.
const ISA_WANT: &str = "portable, avx2 or vnni";

/// The tier an `IE_ISA` request selects on hardware whose best tier is `hw`:
/// no request keeps `hw`, and a request lowers it but never raises it.
fn resolve(hw: IsaTier, requested: Option<IsaTier>) -> IsaTier {
    requested.map_or(hw, |tier| tier.min(hw))
}

/// Clamps an explicitly requested tier to what the hardware supports —
/// running (say) an AVX2 kernel on a machine without AVX2 would be undefined
/// behaviour, so `tiered!` routes every kernel call through this.
pub(crate) fn clamp(tier: IsaTier) -> IsaTier {
    tier.min(detected())
}

/// Runs one kernel call on the requested tier, clamped to the hardware: the
/// one place that decides whether a tier's code may run on this CPU, and the
/// one `unsafe` call per tier that acts on that decision.
///
/// Two forms:
///
/// * `tiered!(tier, body(a: &[f32], n: usize))` recompiles the
///   `#[inline(always)]` portable `body` inside a named
///   `#[target_feature(enable = "avx2")]` function, where LLVM vectorizes the
///   same loops 8 lanes wide, and calls it (or `body` itself, on the portable
///   tier) with the caller's variables of the listed names.
/// * `tiered!(tier, vnni: f(a, n), avx2: g(a, n), portable: expr)` calls a
///   kernel's explicit-intrinsics functions — safe `#[target_feature]` fns
///   compiled for exactly that tier's features — when the clamped tier
///   reaches them, and evaluates `portable` otherwise. `vnni:` is optional;
///   without it the VNNI tier runs the AVX2 call. Their arguments are plain
///   variables, so each tier's `unsafe` block holds nothing but the call.
macro_rules! tiered {
    ($tier:expr, $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn avx2($($arg: $ty),*) {
            $body($($arg),*)
        }
        $crate::dispatch::tiered!($tier, avx2: avx2($($arg),*), portable: $body($($arg),*))
    }};
    (
        $tier:expr,
        $(vnni: $($vnni:ident)::+($($vnni_arg:ident),*),)?
        avx2: $($avx2:ident)::+($($avx2_arg:ident),*),
        portable: $portable:expr $(,)?
    ) => {
        match $crate::dispatch::clamp($tier) {
            $(
                #[cfg(target_arch = "x86_64")]
                #[allow(unsafe_code)]
                // SAFETY: `clamp` returns `Vnni` only when `detect` found
                // AVX-512 F, BW, VL and VNNI on this CPU.
                $crate::dispatch::IsaTier::Vnni => unsafe { $($vnni)::+($($vnni_arg),*) },
            )?
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: `clamp` returns `Avx2` or above only when `detect`
            // found AVX2 on this CPU.
            tier if tier >= $crate::dispatch::IsaTier::Avx2 => unsafe {
                $($avx2)::+($($avx2_arg),*)
            },
            _ => $portable,
        }
    };
}
pub(crate) use tiered;

/// The tiers the running machine supports, lowest first — what the
/// tier-equivalence tests iterate. `IE_ISA=vnni` on hardware without VNNI is
/// thereby "skipped gracefully": the tier simply never appears here.
pub fn supported_tiers() -> &'static [IsaTier] {
    const ALL: [IsaTier; 3] = [IsaTier::Portable, IsaTier::Avx2, IsaTier::Vnni];
    match detected() {
        IsaTier::Portable => &ALL[..1],
        IsaTier::Avx2 => &ALL[..2],
        IsaTier::Vnni => &ALL[..3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip_through_parse() {
        for tier in [IsaTier::Portable, IsaTier::Avx2, IsaTier::Vnni] {
            assert_eq!(IsaTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(IsaTier::parse(" AVX2 "), Some(IsaTier::Avx2));
        assert_eq!(IsaTier::parse("avx512-vnni"), Some(IsaTier::Vnni));
        assert_eq!(IsaTier::parse("sse9"), None);
    }

    #[test]
    fn active_tier_is_supported_and_respects_a_set_override() {
        let active = active();
        assert!(supported_tiers().contains(&active));
        assert!(active <= detected());
        // When the suite runs under an IE_ISA override (the CI portable-tier
        // job), the cached active tier must honour it.
        if let Some(requested) = crate::knobs::read("IE_ISA", ISA_WANT, IsaTier::parse) {
            assert_eq!(active, clamp(requested));
        }
    }

    #[test]
    fn isa_override_lowers_the_tier_and_warns_on_an_invalid_value() {
        let isa = |raw| crate::knobs::classify("IE_ISA", raw, ISA_WANT, IsaTier::parse);
        assert_eq!(resolve(IsaTier::Avx2, None), IsaTier::Avx2);
        assert_eq!(resolve(IsaTier::Avx2, isa("portable").ok()), IsaTier::Portable);
        // An override never raises the tier above the hardware.
        assert_eq!(resolve(IsaTier::Avx2, isa(" VNNI ").ok()), IsaTier::Avx2);
        for bad in ["portabel", "", "avx"] {
            let warning = isa(bad).expect_err("an invalid value warns");
            assert!(warning.contains(&format!("IE_ISA={bad:?}")), "{warning}");
            assert!(warning.contains(ISA_WANT), "{warning}");
            assert_eq!(resolve(IsaTier::Avx2, isa(bad).ok()), IsaTier::Avx2, "{bad:?}");
        }
    }

    #[test]
    fn supported_tiers_are_ordered_and_start_portable() {
        let tiers = supported_tiers();
        assert_eq!(tiers.first(), Some(&IsaTier::Portable));
        assert!(tiers.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(tiers.last(), Some(&detected()));
    }

    #[test]
    fn clamp_never_exceeds_the_hardware() {
        assert!(clamp(IsaTier::Vnni) <= detected());
        assert_eq!(clamp(IsaTier::Portable), IsaTier::Portable);
    }
}
