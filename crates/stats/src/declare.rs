//! One declaration per metrics record: [`metrics!`](crate::metrics)
//! takes each field once and writes its zero, its shard merge and, when
//! it counts something, its timeline name. [`MetricField`] says, per
//! field type, how it merges and which counters it contributes.

use crate::{BucketSeries, Histogram, RunningStats};

/// How one field of a [`metrics!`](crate::metrics) record combines
/// across shards and which counters it names.
pub trait MetricField {
    /// Fold another shard's value into this one.
    fn merge_field(&mut self, other: &Self);

    /// The `(timeline name, cumulative total)` pairs this field adds
    /// under its field `name`: a `u64` is one counter, a series its
    /// total, a nested record its own list, a distribution none.
    fn field_counters(&self, _name: &'static str) -> impl Iterator<Item = (&'static str, u64)> {
        std::iter::empty()
    }
}

impl MetricField for u64 {
    fn merge_field(&mut self, other: &Self) {
        *self += other;
    }

    fn field_counters(&self, name: &'static str) -> impl Iterator<Item = (&'static str, u64)> {
        std::iter::once((name, *self))
    }
}

impl MetricField for BucketSeries {
    fn merge_field(&mut self, other: &Self) {
        self.merge(other);
    }

    fn field_counters(&self, name: &'static str) -> impl Iterator<Item = (&'static str, u64)> {
        std::iter::once((name, self.total() as u64))
    }
}

impl MetricField for RunningStats {
    fn merge_field(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl MetricField for Histogram {
    fn merge_field(&mut self, other: &Self) {
        self.merge(other);
    }
}

/// Declare a metrics record once. Each field is `pub name: Type`, or
/// `pub name: Type = zero` where the type's `Default` is not its zero (a
/// [`Histogram`] has no default geometry). The macro emits the struct
/// with the caller's attributes, `Default` and `new()`, an inherent
/// `merge`, and `counters()`: every `u64` field and [`BucketSeries`]
/// total in declaration order, nested records flattened, distributions
/// ([`RunningStats`], [`Histogram`]) skipped.
#[macro_export]
macro_rules! metrics {
    (@zero) => { ::core::default::Default::default() };
    (@zero $zero:expr) => { $zero };
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            $($(#[$field_attr:meta])* pub $field:ident : $ty:ty $(= $zero:expr)?),* $(,)?
        }
    ) => {
        $(#[$attr])*
        pub struct $name {
            $($(#[$field_attr])* pub $field: $ty,)*
        }

        impl ::core::default::Default for $name {
            fn default() -> Self {
                $name { $($field: $crate::metrics!(@zero $($zero)?),)* }
            }
        }

        impl $name {
            /// A zeroed record.
            pub fn new() -> Self {
                Self::default()
            }

            /// Fold another shard's record into this one, field by field.
            /// Every field is a count or an exact-sums accumulator, so
            /// folding shards in shard order reproduces the serial totals
            /// bit for bit.
            pub fn merge(&mut self, other: &Self) {
                $($crate::MetricField::merge_field(&mut self.$field, &other.$field);)*
            }

            /// Every counter as `(timeline name, cumulative total)`, in
            /// declaration order; the metrics timeline and the serve
            /// monitor read this list.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
                use $crate::MetricField as _;
                ::core::iter::empty()$(.chain(self.$field.field_counters(stringify!($field))))*
            }
        }

        impl $crate::MetricField for $name {
            fn merge_field(&mut self, other: &Self) {
                self.merge(other);
            }

            fn field_counters(&self, _: &'static str) -> impl Iterator<Item = (&'static str, u64)> {
                self.counters()
            }
        }
    };
}
