//! Stable textual encoding of configurations, the key format of the persistent stores.
//!
//! A [`ConfigKey`] maps a configuration to a single-line string that (a) is unique per
//! configuration, (b) survives a write/read round trip unchanged, and (c) is safe to
//! embed verbatim inside a JSON string.  The on-disk [`crate::JsonlStore`] writes its
//! records under this encoding and decodes each key once when it loads them, so two
//! processes (or two runs of the same process) agree on which configurations have
//! already been evaluated.

/// A configuration type with a stable, JSON-string-safe textual key.
///
/// # Contract
///
/// * `decode_key(&c.encode_key()) == Some(c)` for every configuration `c`;
/// * the encoding contains no `"`, `\` or control characters (it is embedded in a JSON
///   string without escaping) and no newlines (one record per line);
/// * the encoding is *stable*: it must not change between runs, or persisted campaigns
///   would silently lose their warm state.
pub trait ConfigKey: Sized {
    /// Append this configuration's stable single-line key to `out`, in place, so a
    /// caller that reuses `out` encodes without allocating.
    fn write_key(&self, out: &mut String);

    /// This configuration's key as a new `String`.
    fn encode_key(&self) -> String {
        let mut key = String::new();
        self.write_key(&mut key);
        key
    }

    /// Decode a key produced by [`ConfigKey::encode_key`]; `None` for foreign input.
    fn decode_key(key: &str) -> Option<Self>;
}

macro_rules! impl_int_key {
    ($($t:ty),*) => {$(
        impl ConfigKey for $t {
            fn write_key(&self, out: &mut String) {
                // digits by hand: `write!` costs several times as much, and a
                // store checks every key it loads by writing it again
                let value = *self as i128;
                if value < 0 {
                    out.push('-');
                }
                // every implementing type fits in 64 bits, where division is cheap
                let mut magnitude = value.unsigned_abs() as u64;
                let mut digits = [0u8; 20];
                let mut start = digits.len();
                loop {
                    start -= 1;
                    digits[start] = b'0' + (magnitude % 10) as u8;
                    magnitude /= 10;
                    if magnitude == 0 {
                        break;
                    }
                }
                out.extend(digits[start..].iter().map(|&digit| char::from(digit)));
            }

            fn decode_key(key: &str) -> Option<Self> {
                key.parse().ok()
            }
        }
    )*};
}

impl_int_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Pairs encode as `"a,b"` — enough for grid-style test spaces, including nested
/// pairs on either side.
///
/// Decoding tries every comma as the split point and returns the first one both
/// halves accept.  A naive `split_once` breaks the round-trip contract for
/// left-nested pairs: `((1, 2), 3)` encodes as `"1,2,3"`, and splitting at the
/// *first* comma hands `"1"` to the `(u32, u32)` decoder, which fails.  For the
/// integer-based configurations this trait targets, the number of commas each side
/// consumes is fixed by its type structure, so at most one split point can decode —
/// the scan is unambiguous.
impl<A: ConfigKey, B: ConfigKey> ConfigKey for (A, B) {
    fn write_key(&self, out: &mut String) {
        self.0.write_key(out);
        out.push(',');
        self.1.write_key(out);
    }

    fn decode_key(key: &str) -> Option<Self> {
        key.match_indices(',').find_map(|(split, _)| {
            let a = A::decode_key(&key[..split])?;
            let b = B::decode_key(&key[split + 1..])?;
            Some((a, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_keys_round_trip() {
        for value in [0u32, 1, 17, u32::MAX] {
            assert_eq!(u32::decode_key(&value.encode_key()), Some(value));
        }
        assert_eq!(i64::decode_key(&(-42i64).encode_key()), Some(-42));
        assert_eq!(u32::decode_key("not a number"), None);
    }

    #[test]
    fn pair_keys_round_trip() {
        let config = (13u32, 5u32);
        let key = config.encode_key();
        assert_eq!(key, "13,5");
        assert_eq!(<(u32, u32)>::decode_key(&key), Some(config));
        assert_eq!(<(u32, u32)>::decode_key("13"), None);
        assert_eq!(<(u32, u32)>::decode_key("13,x"), None);
    }

    #[test]
    fn nested_pair_keys_round_trip() {
        // Regression: the old decoder split at the *first* comma, so the left-nested
        // key "1,2,3" handed "1" to the (u32, u32) decoder and returned None,
        // violating the trait's own round-trip contract.
        let left_nested = ((1u32, 2u32), 3u32);
        let key = left_nested.encode_key();
        assert_eq!(key, "1,2,3");
        assert_eq!(<((u32, u32), u32)>::decode_key(&key), Some(left_nested));

        // right-nested pairs keep working
        let right_nested = (1u32, (2u32, 3u32));
        assert_eq!(
            <(u32, (u32, u32))>::decode_key(&right_nested.encode_key()),
            Some(right_nested)
        );

        // and doubly nested grids round-trip too
        let grid2 = ((7u32, 8u32), (9u32, 10u32));
        assert_eq!(
            <((u32, u32), (u32, u32))>::decode_key(&grid2.encode_key()),
            Some(grid2)
        );
        let deep = (((1u32, 2u32), 3u32), 4u32);
        assert_eq!(
            <(((u32, u32), u32), u32)>::decode_key(&deep.encode_key()),
            Some(deep)
        );

        // foreign input with the wrong arity still decodes to None
        assert_eq!(<((u32, u32), u32)>::decode_key("1,2"), None);
        assert_eq!(<((u32, u32), u32)>::decode_key("1,2,3,4"), None);
    }

    #[test]
    fn integer_write_key_matches_display() {
        let mut out = String::new();
        for value in [0u64, 1, 9, 10, 99, 100, 4_294_967_295, u64::MAX] {
            out.clear();
            value.write_key(&mut out);
            assert_eq!(out, value.to_string());
        }
        for value in [0i64, -1, -10, 42, i64::MIN, i64::MAX] {
            out.clear();
            value.write_key(&mut out);
            assert_eq!(out, value.to_string());
        }
        for value in [i8::MIN, -1, 0, i8::MAX] {
            out.clear();
            value.write_key(&mut out);
            assert_eq!(out, value.to_string());
        }
    }

    #[test]
    fn write_key_appends_the_encoding() {
        let mut out = String::from("prefix|");
        ((1u32, 2u32), (-3i64, 40u8)).write_key(&mut out);
        assert_eq!(out, "prefix|1,2,-3,40");
        assert_eq!(
            &out["prefix|".len()..],
            ((1u32, 2u32), (-3i64, 40u8)).encode_key()
        );
    }

    #[test]
    fn keys_are_json_string_safe() {
        for key in [
            (13u32, 5u32).encode_key(),
            u64::MAX.encode_key(),
            (-7i32).encode_key(),
        ] {
            assert!(!key.contains(['"', '\\', '\n', '\r']));
        }
    }
}
