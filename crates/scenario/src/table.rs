//! Declarative JSON tables: every spec and report type names its members once.
//!
//! [`json_record!`] (a struct) and [`json_enum!`] (an enum tagged by one member) take a
//! type's members in emit order and generate both its [`ToJson`] writer and its strict
//! [`FromJson`] reader:
//!
//! * the writer emits the members in table order, a tagged variant its tag first;
//! * the reader refuses a non-object, and any member the table does not name before it
//!   reads a single one, so a typo in a hand-written spec ("kmin", "thread", ...) fails
//!   loudly instead of silently running a different experiment;
//! * a member without a default is required. `member = default` may be omitted, and
//!   `member | null = default` may also be written as `null`. An `Option` member writes
//!   `None` as `null` and reads `null` back as `None`;
//! * each value goes through its type's own `ToJson` / `FromJson`. The leaf decoders
//!   below say only what a value must be ("must be a number"); the record that owns the
//!   member puts its context and the member's name in front, once. Errors of nested
//!   tables already carry their own context and pass through unchanged.

use crate::json::{FromJson, JsonValue, ToJson};
use crate::ScenarioError;
use sfo_core::DegreeCutoff;
use sfo_sim::catalog::ItemId;

/// The members of a JSON object.
pub(crate) type Members = [(String, JsonValue)];

fn object<'a>(value: &'a JsonValue, ctx: &str) -> Result<&'a Members, ScenarioError> {
    value
        .as_object()
        .ok_or_else(|| ScenarioError::invalid(format!("{ctx}: must be an object")))
}

/// The members of `value`, refusing a non-object and any key that is neither `tag` nor
/// one of `names`.
pub(crate) fn members<'a>(
    value: &'a JsonValue,
    ctx: &str,
    tag: Option<&str>,
    names: &[&str],
) -> Result<&'a Members, ScenarioError> {
    let members = object(value, ctx)?;
    let known = |key: &str| tag == Some(key) || names.contains(&key);
    if let Some((key, _)) = members.iter().find(|(key, _)| !known(key)) {
        let allowed: Vec<&str> = tag.into_iter().chain(names.iter().copied()).collect();
        return Err(ScenarioError::invalid(format!(
            "{ctx}: unknown field \"{key}\" (allowed: {})",
            allowed.join(", ")
        )));
    }
    Ok(members)
}

/// The required member `key`.
pub(crate) fn required<'a>(
    members: &'a Members,
    ctx: &str,
    key: &str,
) -> Result<&'a JsonValue, ScenarioError> {
    members
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| ScenarioError::invalid(format!("{ctx}: missing field \"{key}\"")))
}

/// Decodes member `key`. An absent member (or a `null` one, when `null_is_default`)
/// takes `default`, and is refused as missing when there is none.
pub(crate) fn member<T: FromJson>(
    members: &Members,
    ctx: &str,
    key: &str,
    null_is_default: bool,
    default: Option<T>,
) -> Result<T, ScenarioError> {
    match members.iter().find(|(k, _)| k == key) {
        Some((_, value)) if !(null_is_default && value.is_null()) => {
            T::from_json(value).map_err(|e| in_member(e, ctx, key))
        }
        _ => {
            default.ok_or_else(|| ScenarioError::invalid(format!("{ctx}: missing field \"{key}\"")))
        }
    }
}

/// The string value of the tag member `key` of a tagged object.
pub(crate) fn tag<'a>(
    value: &'a JsonValue,
    ctx: &str,
    key: &str,
) -> Result<&'a str, ScenarioError> {
    required(object(value, ctx)?, ctx, key)?
        .as_str()
        .ok_or_else(|| ScenarioError::invalid(format!("{ctx}: field \"{key}\" must be a string")))
}

/// The error for a tag value outside `tags`.
pub(crate) fn unknown_tag(ctx: &str, key: &str, value: &str, tags: &[&str]) -> ScenarioError {
    let expected = match tags {
        [only] => only.to_string(),
        [first, second] => format!("{first} or {second}"),
        [init @ .., last] => format!("{}, or {last}", init.join(", ")),
        [] => String::new(),
    };
    ScenarioError::invalid(format!(
        "{ctx}: unknown {key} \"{value}\" (expected {expected})"
    ))
}

/// The reason of an error that names no context yet: a leaf decoder's "must be ...".
/// Every context is written as `"{ctx}: ..."`.
fn bare(error: &ScenarioError) -> Option<&str> {
    match error {
        ScenarioError::InvalidSpec { reason } if !reason.contains(": ") => Some(reason),
        _ => None,
    }
}

fn in_member(error: ScenarioError, ctx: &str, key: &str) -> ScenarioError {
    match bare(&error) {
        Some(reason) => ScenarioError::invalid(format!("{ctx}: field \"{key}\" {reason}")),
        None => error,
    }
}

/// Generates `ToJson` and `FromJson` for a struct from its members in emit order:
/// `json_record!(Type, "context", { a, b = default, c | null = default })`.
macro_rules! json_record {
    ($ty:ident, $ctx:literal, { $($field:ident $(| $null:ident)? $(= $default:expr)?),* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                $crate::json::JsonValue::Object(vec![$((
                    stringify!($field).to_string(),
                    $crate::json::ToJson::to_json(&self.$field),
                )),*])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(value: &$crate::json::JsonValue) -> Result<Self, $crate::ScenarioError> {
                let members =
                    $crate::table::members(value, $ctx, None, &[$(stringify!($field)),*])?;
                Ok($ty {$(
                    $field: $crate::table::member(
                        members,
                        $ctx,
                        stringify!($field),
                        $crate::table::json_member!(null $($null)?),
                        $crate::table::json_member!(default $($default)?),
                    )?,
                )*})
            }
        }
    };
}

/// Generates `ToJson` and `FromJson` for an enum whose JSON form is an object tagged by
/// one member: `json_enum!(Type, "context", "tag", { Variant = "value" { members }, ... })`,
/// with members written as in [`json_record!`]. Also implements [`Tagged`].
macro_rules! json_enum {
    ($ty:ident, $ctx:literal, $tag:literal, {
        $($variant:ident = $value:literal {
            $($field:ident $(| $null:ident)? $(= $default:expr)?),* $(,)?
        }),* $(,)?
    }) => {
        impl $crate::table::Tagged for $ty {
            fn tag(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $value,)*
                }
            }
        }

        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::JsonValue {
                match self {$(
                    Self::$variant { $($field),* } => $crate::json::JsonValue::Object(vec![
                        ($tag.to_string(), $crate::json::JsonValue::from_str_value($value)),
                        $((
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json($field),
                        ),)*
                    ]),
                )*}
            }
        }

        impl $crate::json::FromJson for $ty {
            #[allow(unused_variables)]
            fn from_json(value: &$crate::json::JsonValue) -> Result<Self, $crate::ScenarioError> {
                match $crate::table::tag(value, $ctx, $tag)? {
                    $($value => {
                        let members = $crate::table::members(
                            value,
                            $ctx,
                            Some($tag),
                            &[$(stringify!($field)),*],
                        )?;
                        Ok(Self::$variant {$(
                            $field: $crate::table::member(
                                members,
                                $ctx,
                                stringify!($field),
                                $crate::table::json_member!(null $($null)?),
                                $crate::table::json_member!(default $($default)?),
                            )?,
                        )*})
                    })*
                    other => Err($crate::table::unknown_tag($ctx, $tag, other, &[$($value),*])),
                }
            }
        }
    };
}

/// The per-member switches of the two tables: whether `null` means the default, and
/// the default itself.
macro_rules! json_member {
    (null) => {
        false
    };
    (null null) => {
        true
    };
    (default) => {
        None
    };
    (default $default:expr) => {
        Some($default)
    };
}

pub(crate) use {json_enum, json_member, json_record};

/// The tag value of a [`json_enum!`] variant.
pub(crate) trait Tagged {
    /// The variant's tag, as written in JSON.
    fn tag(&self) -> &'static str;
}

// ---------------------------------------------------------------------------------------
// Member types.

/// `ToJson` / `FromJson` of a JSON scalar: its writer, its reader, and what a value of
/// it must be.
macro_rules! scalar {
    ($($ty:ty: $write:expr, $read:expr, $what:literal;)*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                $write(self)
            }
        }

        impl FromJson for $ty {
            fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
                $read(value).ok_or_else(|| ScenarioError::invalid(concat!("must be ", $what)))
            }
        }
    )*};
}

scalar! {
    usize: |v: &usize| JsonValue::from_usize(*v), JsonValue::as_usize, "a non-negative integer";
    u64: |v: &u64| JsonValue::from_u64(*v), JsonValue::as_u64, "a non-negative integer";
    f64: |v: &f64| JsonValue::from_f64(*v), JsonValue::as_f64, "a number";
    bool: |v: &bool| JsonValue::Bool(*v), JsonValue::as_bool, "a boolean";
    String:
        |v: &String| JsonValue::from_str_value(v),
        |v: &JsonValue| v.as_str().map(str::to_string),
        "a string";
}

impl ToJson for u32 {
    fn to_json(&self) -> JsonValue {
        JsonValue::from_u64(u64::from(*self))
    }
}

impl FromJson for u32 {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        u32::try_from(u64::from_json(value)?)
            .map_err(|_| ScenarioError::invalid("exceeds the 32-bit range"))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        if value.is_null() {
            return Ok(None);
        }
        T::from_json(value).map(Some).map_err(|e| match bare(&e) {
            Some(reason) => ScenarioError::invalid(format!("{reason} or null")),
            None => e,
        })
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        let items = value
            .as_array()
            .ok_or_else(|| ScenarioError::invalid("must be an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json(item).map_err(|e| match bare(&e) {
                    Some(reason) => ScenarioError::invalid(format!("element {i} {reason}")),
                    None => e,
                })
            })
            .collect()
    }
}

impl ToJson for DegreeCutoff {
    fn to_json(&self) -> JsonValue {
        self.value().to_json()
    }
}

impl FromJson for DegreeCutoff {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        Option::<usize>::from_json(value).map(DegreeCutoff::from)
    }
}

impl ToJson for ItemId {
    fn to_json(&self) -> JsonValue {
        self.rank().to_json()
    }
}

impl FromJson for ItemId {
    fn from_json(value: &JsonValue) -> Result<Self, ScenarioError> {
        u64::from_json(value).map(ItemId::new)
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::{MeasureSpec, SweepSpec, TopologySpec};
    use crate::{ScenarioError, ScenarioSpec};

    use super::*;

    fn decode<T: FromJson>(text: &str) -> Result<T, String> {
        T::from_json(&JsonValue::parse(text).unwrap()).map_err(|e| match e {
            ScenarioError::InvalidSpec { reason } => reason,
            other => panic!("{other:?}"),
        })
    }

    #[test]
    fn null_stands_for_a_default_only_where_the_table_says_so() {
        let sweep: SweepSpec =
            decode(r#"{"searches_per_point": null, "threads": null, "shard_count": null}"#)
                .unwrap();
        assert_eq!(sweep, SweepSpec::axes(Vec::new(), Vec::new()));
        assert_eq!(
            decode::<SweepSpec>(r#"{"batch": null}"#).unwrap_err(),
            "sweep: field \"batch\" must be a boolean"
        );
        assert_eq!(
            decode::<SweepSpec>(r#"{"stubs": null}"#).unwrap_err(),
            "sweep: field \"stubs\" must be an array"
        );
        let spec: ScenarioSpec = decode(
            r#"{"name": "n", "topology": null, "dynamics": {"kind": "static"},
                "measure": null, "seed": 1, "realizations": 1, "curve_label": null}"#,
        )
        .unwrap();
        assert_eq!(spec.measure, MeasureSpec::SearchSweep);
        assert_eq!((spec.topology, spec.curve_label), (None, None));
        assert_eq!(
            decode::<ScenarioSpec>(r#"{"name": null}"#).unwrap_err(),
            "scenario: field \"name\" must be a string"
        );
    }

    #[test]
    fn unknown_members_are_refused_before_any_member_is_read() {
        assert_eq!(
            decode::<TopologySpec>(r#"{"family": "pa", "nodes": "x", "bogus": 1}"#).unwrap_err(),
            "topology: unknown field \"bogus\" (allowed: family, nodes, m, cutoff)"
        );
        assert_eq!(
            decode::<SweepSpec>("5").unwrap_err(),
            "sweep: must be an object"
        );
    }

    #[test]
    fn member_errors_name_the_context_and_the_member_once() {
        assert_eq!(
            decode::<SweepSpec>(r#"{"ttls": [1, 5000000000]}"#).unwrap_err(),
            "sweep: field \"ttls\" element 1 exceeds the 32-bit range"
        );
        assert_eq!(
            decode::<SweepSpec>(r#"{"cutoffs": [null, -1]}"#).unwrap_err(),
            "sweep: field \"cutoffs\" element 1 must be a non-negative integer or null"
        );
        assert_eq!(
            decode::<TopologySpec>(r#"{"family": "pa", "nodes": 9, "m": 1, "cutoff": "x"}"#)
                .unwrap_err(),
            "topology: field \"cutoff\" must be a non-negative integer or null"
        );
        // A nested table's error keeps its own context, unwrapped.
        assert_eq!(
            decode::<ScenarioSpec>(
                r#"{"name": "n", "dynamics": {"kind": "static"}, "sweep": {"ttls": "x"},
                    "seed": 1, "realizations": 1}"#
            )
            .unwrap_err(),
            "sweep: field \"ttls\" must be an array"
        );
        assert_eq!(
            decode::<TopologySpec>(r#"{"family": "ring"}"#).unwrap_err(),
            "topology: unknown family \"ring\" (expected pa, hapa, cm, ucm, dapa_grn, \
             dapa_mesh, or snapshot)"
        );
    }
}
