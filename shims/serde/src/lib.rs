//! Offline stand-in for the subset of serde this workspace uses.
//!
//! The container cannot fetch crates.io, so the real serde is unavailable.
//! The workspace only ever serializes report/row structs to JSON artifacts,
//! so the shim collapses serde's serializer abstraction to a single tree
//! type: [`Value`]. `Serialize::to_value` builds the tree; `serde_json`
//! (also shimmed) renders it. Object fields keep insertion order, which
//! makes serialized output deterministic — a property the determinism
//! regression tests rely on.

#[cfg(feature = "derive")]
pub use serde_derive::Serialize;

/// A JSON value tree. Objects preserve insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (kept separate so u64 > i64::MAX round-trips).
    UInt(u64),
    /// Finite float. Non-finite floats serialize as `null`.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

/// Convert a value into a JSON [`Value`] tree.
pub trait Serialize {
    /// Build the JSON tree for `self`.
    fn to_value(&self) -> Value;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! impl_ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
impl_ser_signed!(i32, i64);

macro_rules! impl_ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
    )*};
}
impl_ser_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_ser_tuple {
    ($($name:ident),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Value::Array(vec![$($name.to_value()),+])
            }
        }
    };
}
impl_ser_tuple!(A, B);
impl_ser_tuple!(A, B, C);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(7u32.to_value(), Value::UInt(7));
        assert_eq!((-3i32).to_value(), Value::Int(-3));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("hi".to_value(), Value::Str("hi".into()));
        assert_eq!(None::<u8>.to_value(), Value::Null);
    }

    #[test]
    fn containers_nest() {
        let v = vec![(1u32, 2.5f64)];
        assert_eq!(
            v.to_value(),
            Value::Array(vec![Value::Array(vec![Value::UInt(1), Value::Float(2.5)])])
        );
    }
}
