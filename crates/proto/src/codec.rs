//! A compact binary serde format, implemented from scratch.
//!
//! The format is **non-self-describing** (the reader must know the type),
//! which keeps frames small and encoding branch-free:
//!
//! * scalars: fixed-width little-endian (`bool` = 1 byte, `u16`/`i16` = 2,
//!   `u32`/`i32`/`f32` = 4, `u64`/`i64`/`f64` = 8, `char` = 4);
//! * `str` / `bytes` / sequences / maps: `u64` little-endian length prefix
//!   followed by the elements;
//! * `Option`: 1-byte tag (0 = `None`, 1 = `Some`) + value;
//! * structs / tuples: fields in declaration order, no prefix;
//! * enums: `u32` variant index + variant content.
//!
//! Deserialization is strict: trailing bytes, truncated input, invalid
//! UTF-8, bad option/bool tags and out-of-range lengths are all hard
//! errors — a corrupted frame can never silently decode.

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};
use std::fmt;

/// Errors produced by encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the value was complete.
    Eof,
    /// Bytes remained after the value was fully decoded.
    TrailingBytes(usize),
    /// A `bool` byte was neither 0 nor 1.
    BadBool(u8),
    /// An `Option` tag byte was neither 0 nor 1.
    BadOptionTag(u8),
    /// A `char` code point was invalid.
    BadChar(u32),
    /// A string was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the remaining input (corrupt or hostile).
    BadLength(u64),
    /// The type asked the format for something it cannot do
    /// (`deserialize_any`, unsized sequences, ...).
    Unsupported(&'static str),
    /// Error raised by the type's own serde implementation.
    Custom(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::BadBool(b) => write!(f, "invalid bool byte {b:#x}"),
            CodecError::BadOptionTag(b) => write!(f, "invalid option tag {b:#x}"),
            CodecError::BadChar(c) => write!(f, "invalid char code point {c:#x}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            CodecError::BadLength(n) => write!(f, "length prefix {n} exceeds input"),
            CodecError::Unsupported(what) => write!(f, "unsupported: {what}"),
            CodecError::Custom(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Custom(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Custom(msg.to_string())
    }
}

/// Encodes a value to bytes.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    to_bytes_into(&mut out, value)?;
    Ok(out)
}

/// Appends a value's encoding to `out`, for callers that reuse one buffer
/// across messages. On error `out` is cut back to its original length.
pub fn to_bytes_into<T: Serialize>(out: &mut Vec<u8>, value: &T) -> Result<(), CodecError> {
    let start = out.len();
    // The serializer owns its buffer; lend it `out`'s allocation for the
    // call instead of threading a lifetime through every compound impl.
    let mut ser = BinSerializer { out: std::mem::take(out) };
    let result = value.serialize(&mut ser);
    *out = ser.out;
    if result.is_err() {
        out.truncate(start);
    }
    result
}

/// Decodes a value from bytes, requiring the input to be fully consumed.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut de = BinDeserializer { input: bytes };
    let v = T::deserialize(&mut de)?;
    if de.input.is_empty() {
        Ok(v)
    } else {
        Err(CodecError::TrailingBytes(de.input.len()))
    }
}

struct BinSerializer {
    out: Vec<u8>,
}

impl ser::Serializer for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.push(v as u8);
        Ok(())
    }
    fn serialize_i8(self, v: i8) -> Result<(), CodecError> {
        self.out.push(v as u8);
        Ok(())
    }
    fn serialize_i16(self, v: i16) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i32(self, v: i32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u8(self, v: u8) -> Result<(), CodecError> {
        self.out.push(v);
        Ok(())
    }
    fn serialize_u16(self, v: u16) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u32(self, v: u32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f32(self, v: f32) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), CodecError> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.serialize_bytes(v.as_bytes())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.out.extend_from_slice(&(v.len() as u64).to_le_bytes());
        self.out.extend_from_slice(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.push(0);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.push(1);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Unsupported("sequences must have a known length"))?;
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Unsupported("maps must have a known length"))?;
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
}

macro_rules! forward_compound {
    ($trait:path, $serfn:ident $(, $keyfn:ident)?) => {
        impl<'a> $trait for &'a mut BinSerializer {
            type Ok = ();
            type Error = CodecError;
            $(
                fn $keyfn<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
                    key.serialize(&mut **self)
                }
            )?
            fn $serfn<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

forward_compound!(ser::SerializeSeq, serialize_element);
forward_compound!(ser::SerializeTuple, serialize_element);
forward_compound!(ser::SerializeTupleStruct, serialize_field);
forward_compound!(ser::SerializeTupleVariant, serialize_field);
forward_compound!(ser::SerializeMap, serialize_value, serialize_key);

impl ser::SerializeStruct for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct BinDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> BinDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::Eof);
        }
        let (head, rest) = self.input.split_at(n);
        self.input = rest;
        Ok(head)
    }

    /// Like [`take`](Self::take) but returns a fixed-size array, so scalar
    /// reads need no panicking `try_into().unwrap()` conversion.
    fn take_n<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        <[u8; N]>::try_from(self.take(N)?).map_err(|_| CodecError::Eof)
    }

    fn read_u8(&mut self) -> Result<u8, CodecError> {
        let [b] = self.take_n::<1>()?;
        Ok(b)
    }

    fn read_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_n()?))
    }

    fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_n()?))
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        let n = self.read_u64()?;
        if n > self.input.len() as u64 {
            // A length can never exceed the bytes that remain: each element
            // takes at least one byte only for byte-ish data, but even for
            // zero-sized elements this guards against absurd prefixes.
            if n > (1 << 32) {
                return Err(CodecError::BadLength(n));
            }
        }
        Ok(n as usize)
    }
}

impl<'de> de::Deserializer<'de> for &mut BinDeserializer<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _v: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("deserialize_any on a non-self-describing format"))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        match self.read_u8()? {
            0 => v.visit_bool(false),
            1 => v.visit_bool(true),
            b => Err(CodecError::BadBool(b)),
        }
    }

    fn deserialize_i8<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_i8(self.read_u8()? as i8)
    }
    fn deserialize_i16<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_i16(i16::from_le_bytes(self.take_n()?))
    }
    fn deserialize_i32<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_i32(i32::from_le_bytes(self.take_n()?))
    }
    fn deserialize_i64<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_i64(i64::from_le_bytes(self.take_n()?))
    }
    fn deserialize_u8<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_u8(self.read_u8()?)
    }
    fn deserialize_u16<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_u16(u16::from_le_bytes(self.take_n()?))
    }
    fn deserialize_u32<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_u32(self.read_u32()?)
    }
    fn deserialize_u64<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_u64(self.read_u64()?)
    }
    fn deserialize_f32<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_f32(f32::from_le_bytes(self.take_n()?))
    }
    fn deserialize_f64<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_f64(f64::from_le_bytes(self.take_n()?))
    }
    fn deserialize_char<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        let c = self.read_u32()?;
        v.visit_char(char::from_u32(c).ok_or(CodecError::BadChar(c))?)
    }
    fn deserialize_str<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        let bytes = self.take(len)?;
        v.visit_borrowed_str(std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)?)
    }
    fn deserialize_string<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(v)
    }
    fn deserialize_bytes<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        v.visit_borrowed_bytes(self.take(len)?)
    }
    fn deserialize_byte_buf<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(v)
    }
    fn deserialize_option<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        match self.read_u8()? {
            0 => v.visit_none(),
            1 => v.visit_some(self),
            b => Err(CodecError::BadOptionTag(b)),
        }
    }
    fn deserialize_unit<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        v.visit_unit()
    }
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        v: V,
    ) -> Result<V::Value, CodecError> {
        v.visit_unit()
    }
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        v: V,
    ) -> Result<V::Value, CodecError> {
        v.visit_newtype_struct(self)
    }
    fn deserialize_seq<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        self.deserialize_counted(len, v)
    }
    fn deserialize_tuple<V: Visitor<'de>>(self, len: usize, v: V) -> Result<V::Value, CodecError> {
        self.deserialize_counted(len, v)
    }
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        v: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_counted(len, v)
    }
    fn deserialize_map<V: Visitor<'de>>(self, v: V) -> Result<V::Value, CodecError> {
        let len = self.read_len()?;
        v.visit_map(CountedAccess { de: self, remaining: len })
    }
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        v: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_counted(fields.len(), v)
    }
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        v: V,
    ) -> Result<V::Value, CodecError> {
        v.visit_enum(EnumAccess { de: self })
    }
    fn deserialize_identifier<V: Visitor<'de>>(self, _v: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("identifiers are not encoded"))
    }
    fn deserialize_ignored_any<V: Visitor<'de>>(self, _v: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("cannot skip values in a non-self-describing format"))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

impl<'de> BinDeserializer<'de> {
    fn deserialize_counted<V: Visitor<'de>>(
        &mut self,
        len: usize,
        v: V,
    ) -> Result<V::Value, CodecError> {
        v.visit_seq(CountedAccess { de: self, remaining: len })
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    remaining: usize,
}

impl<'a, 'de> de::SeqAccess<'de> for CountedAccess<'a, 'de> {
    type Error = CodecError;
    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'a, 'de> de::MapAccess<'de> for CountedAccess<'a, 'de> {
    type Error = CodecError;
    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;
    type Variant = VariantAccess<'a, 'de>;
    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), CodecError> {
        let idx = self.de.read_u32()?;
        let val = seed.deserialize(idx.into_deserializer())?;
        Ok((val, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
}

impl<'a, 'de> de::VariantAccess<'de> for VariantAccess<'a, 'de> {
    type Error = CodecError;
    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }
    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, v: V) -> Result<V::Value, CodecError> {
        self.de.deserialize_counted(len, v)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        v: V,
    ) -> Result<V::Value, CodecError> {
        self.de.deserialize_counted(fields.len(), v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + fmt::Debug>(v: &T) {
        let bytes = to_bytes(v).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Flat {
        a: u8,
        b: i64,
        c: f64,
        d: bool,
        e: String,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        Newtype(u32),
        Tuple(u16, u16),
        Struct { x: f32, name: String },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Nested {
        items: Vec<Shape>,
        map: BTreeMap<String, Option<u64>>,
        pair: (i8, char),
        blob: Vec<u8>,
        unit: (),
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u64::MAX);
        roundtrip(&i64::MIN);
        roundtrip(&-1i32);
        roundtrip(&2.25f64);
        roundtrip(&f64::NEG_INFINITY);
        roundtrip(&true);
        roundtrip(&'λ');
        roundtrip(&String::from("多radio MANET"));
    }

    #[test]
    fn struct_roundtrip() {
        roundtrip(&Flat { a: 7, b: -42, c: 2.5, d: true, e: "hello".into() });
    }

    #[test]
    fn enum_variants_roundtrip() {
        roundtrip(&Shape::Unit);
        roundtrip(&Shape::Newtype(99));
        roundtrip(&Shape::Tuple(1, 2));
        roundtrip(&Shape::Struct { x: 1.5, name: "n".into() });
    }

    #[test]
    fn nested_roundtrip() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), Some(1));
        map.insert("b".to_string(), None);
        roundtrip(&Nested {
            items: vec![Shape::Unit, Shape::Tuple(3, 4), Shape::Newtype(0)],
            map,
            pair: (-5, 'x'),
            blob: vec![0, 255, 128],
            unit: (),
        });
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(&Option::<u32>::None);
        roundtrip(&Some(17u32));
        roundtrip(&Some(Some(false)));
        roundtrip(&Option::<Option<bool>>::Some(None));
    }

    #[test]
    fn empty_collections() {
        roundtrip(&Vec::<u64>::new());
        roundtrip(&BTreeMap::<String, u8>::new());
        roundtrip(&String::new());
    }

    #[test]
    fn core_types_roundtrip() {
        use poem_core::{ChannelId, EmuTime, NodeId, PacketId};
        roundtrip(&NodeId(3));
        roundtrip(&ChannelId(2));
        roundtrip(&PacketId(u64::MAX));
        roundtrip(&EmuTime::from_millis(123));
        let pkt = poem_core::EmuPacket::new(
            PacketId(1),
            NodeId(1),
            poem_core::packet::Destination::Broadcast,
            ChannelId(2),
            poem_core::RadioId(0),
            EmuTime::from_micros(5),
            vec![1u8, 2, 3],
        );
        roundtrip(&pkt);
    }

    #[test]
    fn truncated_input_is_eof() {
        let bytes = to_bytes(&Flat { a: 1, b: 2, c: 3.0, d: false, e: "abc".into() }).unwrap();
        for cut in 0..bytes.len() {
            let err = from_bytes::<Flat>(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, CodecError::Eof | CodecError::BadLength(_)), "cut {cut}: {err}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&42u32).unwrap();
        bytes.push(0xFF);
        assert_eq!(from_bytes::<u32>(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(from_bytes::<bool>(&[2]), Err(CodecError::BadBool(2)));
    }

    #[test]
    fn bad_option_tag_rejected() {
        assert_eq!(from_bytes::<Option<u8>>(&[7, 0]), Err(CodecError::BadOptionTag(7)));
    }

    #[test]
    fn bad_utf8_rejected() {
        // len=1, byte 0xFF.
        let bytes = [1, 0, 0, 0, 0, 0, 0, 0, 0xFF];
        assert_eq!(from_bytes::<String>(&bytes), Err(CodecError::BadUtf8));
    }

    #[test]
    fn bad_char_rejected() {
        let bytes = 0xD800u32.to_le_bytes();
        assert_eq!(from_bytes::<char>(&bytes), Err(CodecError::BadChar(0xD800)));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Vec<u8> claiming u64::MAX elements.
        let bytes = u64::MAX.to_le_bytes();
        let err = from_bytes::<Vec<u8>>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::BadLength(_) | CodecError::Eof), "{err}");
    }

    #[test]
    fn unknown_enum_variant_rejected() {
        let bytes = 999u32.to_le_bytes();
        assert!(from_bytes::<Shape>(&bytes).is_err());
    }

    #[test]
    fn encoding_is_deterministic_and_compact() {
        let v = Flat { a: 1, b: 2, c: 3.0, d: true, e: "xy".into() };
        let b1 = to_bytes(&v).unwrap();
        let b2 = to_bytes(&v).unwrap();
        assert_eq!(b1, b2);
        // 1 + 8 + 8 + 1 + (8 + 2) = 28 bytes.
        assert_eq!(b1.len(), 28);
    }
}
