//! The boundary of the parse rules the `IE_*` knobs use: whatever string a
//! variable holds, each rule through its reader's pure step gives either a
//! value inside the rule's range or a warning naming `VAR="raw"`, and never
//! panics. It does not see which rule a knob's caller passes; the cases each
//! knob pins are tested beside its reader.

use intermittent_multiexit::energy::test_support::classify_seed;
use intermittent_multiexit::nn::train::{parse_threads, MAX_WORKERS};
use intermittent_multiexit::serve::ShedPolicy;
use intermittent_multiexit::tensor::knobs::classify;
use intermittent_multiexit::tensor::IsaTier;
use proptest::prelude::*;

/// One parse rule as its reader applies it.
struct Rule {
    /// A knob that uses the rule; only the warning names it.
    var: &'static str,
    /// The reader's pure step with the rule: the value as text, or the
    /// warning.
    outcome: fn(&str, &str) -> Result<String, String>,
    /// The values an integer rule accepts (`None` for the named-value rules).
    range: Option<(u128, u128)>,
}

const WANT: &str = "…";

/// The five parse rules of the knobs, with the `u64` rule once more through
/// the seed reader's pure step.
const RULES: [Rule; 6] = [
    Rule {
        var: "IE_ISA",
        outcome: |var, raw| classify(var, raw, WANT, IsaTier::parse).map(|t| t.name().into()),
        range: None,
    },
    Rule {
        var: "IE_SERVE_SHED",
        outcome: |var, raw| classify(var, raw, WANT, ShedPolicy::parse).map(|p| p.name().into()),
        range: None,
    },
    Rule {
        var: "IE_EVAL_THREADS",
        outcome: |var, raw| classify(var, raw, WANT, parse_threads).map(|n| n.to_string()),
        range: Some((1, MAX_WORKERS as u128)),
    },
    Rule {
        var: "IE_CHAOS_SEED",
        outcome: |var, raw| {
            classify(var, raw, WANT, |s| s.parse::<u64>().ok()).map(|n| n.to_string())
        },
        range: Some((0, u64::MAX as u128)),
    },
    Rule {
        var: "IE_SERVE_WINDOW",
        outcome: |var, raw| {
            classify(var, raw, WANT, |s| s.parse::<usize>().ok()).map(|n| n.to_string())
        },
        range: Some((0, usize::MAX as u128)),
    },
    Rule {
        var: "IE_TEST_SEED",
        outcome: |var, raw| classify_seed(var, raw).map(|n| n.to_string()),
        range: Some((0, u64::MAX as u128)),
    },
];

/// What an integer rule must accept, worked out without `str::parse`: the
/// trimmed value is an optional `+` and ASCII digits, and their value lies in
/// the rule's range.
fn expected_integer(raw: &str, (min, max): (u128, u128)) -> Option<String> {
    let trimmed = raw.trim();
    let digits = trimmed.strip_prefix('+').unwrap_or(trimmed);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let value = digits
        .bytes()
        .try_fold(0u128, |acc, b| acc.checked_mul(10)?.checked_add(u128::from(b - b'0')))?;
    (min..=max).contains(&value).then(|| value.to_string())
}

/// The boundary property for one value across every rule: an integer rule
/// accepts exactly the integers in its range, and every rejection is a
/// warning that names the variable and the raw value.
fn holds_for_every_rule(raw: &str) {
    for Rule { var, outcome, range } in RULES {
        let outcome = outcome(var, raw);
        if let Some(range) = range {
            assert_eq!(outcome.clone().ok(), expected_integer(raw, range), "{var}={raw:?}");
        }
        if let Err(warning) = outcome {
            assert!(warning.starts_with("warning: ignoring "), "{warning}");
            assert!(warning.contains(&format!("{var}={raw:?}")), "{warning}");
            assert!(warning.ends_with("; using the default"), "{warning}");
        }
    }
}

/// Characters the random values are drawn from: digits, signs, separators,
/// letters of the accepted words, Unicode whitespace that `trim` removes
/// (no-break and ideographic spaces) and characters it must not accept
/// (a zero-width space, an Arabic-Indic and a full-width digit, NUL).
const ALPHABET: &[char] = &[
    '0', '1', '2', '5', '6', '7', '9', '+', '-', '.', ' ', '\t', '\n', 'x', 'e', 'E', 'a', 'v',
    'V', 'p', 'o', 'r', 't', 'b', 'l', 'n', 'i', 'd', 'g', 'j', 'c', '_', '\u{a0}', '\u{3000}',
    '\u{200b}', '\u{663}', '\u{ff11}', 'é', '\0',
];

/// Words some knob accepts, to be decorated with case flips and padding.
const WORDS: &[&str] = &[
    "portable",
    "scalar",
    "avx2",
    "vnni",
    "avx512-vnni",
    "reject",
    "drop-oldest",
    "drop_oldest",
    "degrade",
    "256",
    "257",
    "65536",
];

const PADS: [&str; 4] = ["", " ", "\t", "\u{a0}"];

/// Counts on either side of a bound: zero, the worker bound and
/// `serve_demo`'s request bound.
const BOUNDS: [u64; 7] = [0, 1, 255, 256, 257, 65_536, 65_537];

/// One random knob value: random characters, a padded and maybe signed
/// integer (up to 2^128, so past every integer type), a decorated word, or
/// a count at one of the bounds.
fn arb_value() -> impl Strategy<Value = String> {
    let chars = proptest::collection::vec(0usize..ALPHABET.len(), 0..12);
    (0usize..4, chars, any::<u64>(), any::<u64>(), 0usize..WORDS.len(), any::<u8>()).prop_map(
        |(kind, chars, hi, lo, word, bits)| {
            let pad = PADS[usize::from(bits) % 4];
            let sign = ["", "+", "-"][usize::from(bits >> 2) % 3];
            match kind {
                0 => chars.into_iter().map(|i| ALPHABET[i]).collect(),
                1 => {
                    let n = if bits & 0x40 == 0 {
                        u128::from(lo)
                    } else {
                        u128::from(hi) << 64 | u128::from(lo)
                    };
                    format!("{pad}{sign}{n}{pad}")
                }
                2 => {
                    let flipped: String = WORDS[word]
                        .chars()
                        .zip(hi.to_le_bytes().into_iter().cycle())
                        .map(|(c, b)| if b & 1 == 1 { c.to_ascii_uppercase() } else { c })
                        .collect();
                    format!("{pad}{flipped}{pad}")
                }
                _ => format!("{pad}{sign}{}{pad}", BOUNDS[lo as usize % BOUNDS.len()]),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_rule_gives_a_value_in_range_or_a_warning_naming_it(raw in arb_value()) {
        holds_for_every_rule(&raw);
    }
}

#[test]
fn adversarial_values_give_a_value_in_range_or_a_warning_naming_them() {
    let max = usize::MAX.to_string();
    for raw in [
        "",
        " ",
        "\t\n",
        "+7",
        "0",
        "-0",
        "257",
        "-1",
        "0x1E57",
        "4.5",
        "1e3",
        "2ms",
        "lots",
        "seed7",
        "18446744073709551615",
        "18446744073709551616",
        max.as_str(),
        "340282366920938463463374607431768211456",
        "\u{663}",
        "\u{ff11}\u{ff12}",
        "é",
        "\u{a0}7\u{a0}",
        "7\u{200b}",
        "\0",
        "PORTABLE",
        " VNNI ",
        "portabel",
        "DropOldest",
    ] {
        holds_for_every_rule(raw);
    }
}
