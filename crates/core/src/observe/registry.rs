//! The metrics registry: every counter is declared once, and its
//! snapshot field, its live atomic and its `/metrics` family derive
//! from that one line.
//!
//! A counter set is a [`counters!`](crate::counters) invocation: a
//! snapshot struct whose lines read
//!
//! ```text
//! /// Doc of the snapshot field.
//! field: Type [Atomic] => counter("name", "help"), label = ["value"];
//! ```
//!
//! `[Atomic]` names the atomic that backs the field on the hot path;
//! `=> …` is what it exports: a [`counter`] or [`gauge`] family with at
//! most one label (one value per array element), or [`Nested`] for an
//! embedded counter set. Both parts are optional. An optional
//! `pub struct Twin loads Ordering;` after the struct names the atomic
//! twin.
//!
//! The macro generates the snapshot struct (every field `pub`), its
//! [`Registry`] impl (`families` visits the exported fields in
//! declaration order) and the twin with `snapshot()`, which loads the
//! atomic-backed fields **in declaration order**. That order is where a
//! set encodes its read-order argument (see
//! [`crate::runtime::RuntimeStats`]). The lines of one labelled family
//! share a `const` [`Family`] and are adjacent, so [`render_prometheus`]
//! writes its `# HELP`/`# TYPE` header once.
//!
//! A set whose every field is a scalar that sums across shards, gauges
//! included (entries, bytes), is declared `pub struct Name: Merge { … }`
//! and also gets `merge(&mut self, &other)`. No other set has one: a
//! sum would be wrong for a peak, a shard count or a breaker state.

use std::fmt::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One exported metric family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Family {
    /// The family name (`funcproxy_…`).
    pub name: &'static str,
    /// The Prometheus type: `"counter"` or `"gauge"`.
    pub kind: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The exported value is the field's value divided by this (a
    /// millisecond field exported in seconds has `per = 1e3`).
    pub per: f64,
}

/// A counter family.
pub const fn counter(name: &'static str, help: &'static str) -> Family {
    Family::new(name, "counter", help)
}

/// A gauge family.
pub const fn gauge(name: &'static str, help: &'static str) -> Family {
    Family::new(name, "gauge", help)
}

impl Family {
    const fn new(name: &'static str, kind: &'static str, help: &'static str) -> Family {
        Family {
            name,
            kind,
            help,
            per: 1.0,
        }
    }

    /// This family, exporting the field's value divided by `divisor`.
    pub const fn per(self, divisor: f64) -> Family {
        Family {
            per: divisor,
            ..self
        }
    }
}

/// Marks a field that embeds another counter set: its families are
/// visited in place.
#[derive(Debug, Clone, Copy)]
pub struct Nested;

/// One exported sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    /// The family it belongs to.
    pub family: &'a Family,
    /// Its label, if the family has one.
    pub label: Option<(&'static str, &'static str)>,
    /// The exported value.
    pub value: f64,
}

/// A generated counter set.
pub trait Registry {
    /// Calls `visit` once per exported sample, in declaration order.
    fn families(&self, visit: &mut dyn FnMut(Sample<'_>));
}

/// A field type a family can export: a number, or an array of numbers
/// told apart by the family's label.
pub trait Value {
    /// Calls `f(i, value)` once for a scalar, per element for an array.
    fn each(&self, f: &mut dyn FnMut(usize, f64));
}

macro_rules! scalar_value {
    ($($t:ty),*) => {$(
        #[allow(clippy::unnecessary_cast)]
        impl Value for $t {
            fn each(&self, f: &mut dyn FnMut(usize, f64)) {
                f(0, *self as f64);
            }
        }
    )*};
}
scalar_value!(usize, u64, f64);

impl<V: Value, const N: usize> Value for [V; N] {
    fn each(&self, f: &mut dyn FnMut(usize, f64)) {
        for (i, v) in self.iter().enumerate() {
            v.each(&mut |_, x| f(i, x));
        }
    }
}

/// A line's label: its name and one value per sample.
pub type Label = Option<(&'static str, &'static [&'static str])>;

/// What a line exports: a [`Family`] over a [`Value`] field, or the
/// families of a [`Nested`] counter set.
pub trait Export<V> {
    /// Visits the field's samples.
    fn export(&self, value: &V, label: Label, visit: &mut dyn FnMut(Sample<'_>));
}

impl<V: Value> Export<V> for Family {
    fn export(&self, value: &V, label: Label, visit: &mut dyn FnMut(Sample<'_>)) {
        value.each(&mut |i, x| {
            let label = label.map(|(name, values)| (name, values[i]));
            visit(Sample {
                family: self,
                label,
                value: x / self.per,
            });
        });
    }
}

impl<V: Registry> Export<V> for Nested {
    fn export(&self, value: &V, _: Label, visit: &mut dyn FnMut(Sample<'_>)) {
        value.families(visit);
    }
}

/// The atomic that backs a snapshot field on the hot path.
pub trait Atomic {
    /// The snapshot field's type.
    type Value;
    /// Reads the current value.
    fn load(&self, order: Ordering) -> Self::Value;
}

impl Atomic for AtomicUsize {
    type Value = usize;
    fn load(&self, order: Ordering) -> usize {
        AtomicUsize::load(self, order)
    }
}

impl Atomic for AtomicU64 {
    type Value = u64;
    fn load(&self, order: Ordering) -> u64 {
        AtomicU64::load(self, order)
    }
}

impl<A: Atomic, const N: usize> Atomic for [A; N] {
    type Value = [A::Value; N];
    fn load(&self, order: Ordering) -> Self::Value {
        std::array::from_fn(|i| self[i].load(order))
    }
}

/// A nanosecond total that snapshots as fractional milliseconds.
#[derive(Debug, Default)]
pub struct Nanos(pub AtomicU64);

impl Atomic for Nanos {
    type Value = f64;
    fn load(&self, order: Ordering) -> f64 {
        self.0.load(order) as f64 / 1e6
    }
}

/// Renders a counter set in the Prometheus text exposition format
/// (version 0.0.4): one `# HELP`/`# TYPE` header per family, then its
/// samples.
pub fn render_prometheus(set: &dyn Registry) -> String {
    let mut out = String::with_capacity(4096);
    let mut last = "";
    set.families(&mut |s| {
        let name = s.family.name;
        if name != last {
            let (help, kind) = (s.family.help, s.family.kind);
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            last = name;
        }
        let _ = match s.label {
            Some((key, value)) => writeln!(out, "{name}{{{key}=\"{value}\"}} {}", s.value),
            None => writeln!(out, "{name} {}", s.value),
        };
    });
    out
}

/// Declares a counter set once; see the [module docs](crate::observe::registry).
#[macro_export]
macro_rules! counters {
    (@label) => {
        None
    };
    (@label $name:ident $values:expr) => {
        Some((stringify!($name), &$values[..]))
    };
    (@merge $name:ident $body:tt) => {};
    (
        @merge $name:ident {$(
            $(#[$fmeta:meta])*
            $field:ident : $ty:ty $([$atomic:ty])?
                $(=> $family:expr $(, $lname:ident = $lvals:expr)?)?;
        )*}
        Merge
    ) => {
        impl $name {
            /// Adds every field of `other` into `self` (one shard's
            /// counters into a total).
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
    (@twin $name:ident $body:tt) => {};
    (
        @twin $name:ident {$(
            $(#[$fmeta:meta])*
            $field:ident : $ty:ty $([$atomic:ty])?
                $(=> $family:expr $(, $lname:ident = $lvals:expr)?)?;
        )*}
        $(#[$tmeta:meta])*
        pub struct $twin:ident loads $order:ident;
    ) => {
        $(#[$tmeta])*
        pub struct $twin {
            $($(pub(crate) $field: $atomic,)?)*
        }

        impl $twin {
            /// A point-in-time copy: every atomic-backed field, loaded
            /// in declaration order; the rest at their defaults.
            pub fn snapshot(&self) -> $name {
                use $crate::observe::registry::Atomic;
                let mut snap = <$name as ::std::default::Default>::default();
                $($(
                    snap.$field = <$atomic as Atomic>::load(
                        &self.$field,
                        ::std::sync::atomic::Ordering::$order,
                    );
                )?)*
                snap
            }
        }
    };
    (
        @plain $(#[$meta:meta])*
        struct $name:ident {$(
            $(#[$fmeta:meta])*
            $field:ident : $ty:ty $([$atomic:ty])?
                $(=> $family:expr $(, $lname:ident = $lvals:expr)?)?;
        )*}
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::observe::registry::Registry for $name {
            fn families(&self, visit: &mut dyn FnMut($crate::observe::registry::Sample<'_>)) {
                #[allow(unused_imports)]
                use $crate::observe::registry::{counter, gauge, Export, Nested};
                $($(
                    let label = $crate::counters!(@label $($lname $lvals)?);
                    Export::export(&$family, &self.$field, label, visit);
                )?)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $merge:ident)? {$($body:tt)*}
        $($twin:tt)*
    ) => {
        $crate::counters!(@plain $(#[$meta])* struct $name {$($body)*});
        $crate::counters!(@merge $name {$($body)*} $($merge)?);
        $crate::counters!(@twin $name {$($body)*} $($twin)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    const RETIRED: Family = counter("demo_retired_total", "Entries retired, by reason.");

    crate::counters! {
        /// A demo set.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct Demo {
            /// Exported with a label per element.
            hits: [usize; 2] [[AtomicUsize; 2]] => counter("demo_hits_total", "Hits."),
                tier = ["ram", "disk"];
            /// Two lines of one family.
            evictions: usize => RETIRED, reason = ["evicted"];
            /// See above.
            expired: usize => RETIRED, reason = ["expired"];
            /// Milliseconds, exported in seconds.
            wait_ms: f64 [Nanos] => counter("demo_wait_seconds_total", "Wait.").per(1e3);
            /// Not exported, not merged.
            note: usize;
            /// Read last.
            requests: usize [AtomicUsize] => gauge("demo_requests", "Requests.");
        }
        /// Its live twin.
        #[derive(Debug, Default)]
        pub struct DemoStats loads Acquire;
    }

    crate::counters! {
        /// A set whose fields all sum across shards.
        #[derive(Debug, Default, PartialEq)]
        pub struct Shard: Merge {
            /// A gauge that sums.
            entries: usize => gauge("demo_entries", "Entries.");
            /// Not exported, summed all the same.
            bytes: usize;
        }
    }

    #[test]
    fn one_declaration_drives_snapshot_merge_and_text() {
        let live = DemoStats::default();
        live.hits[1].fetch_add(2, Ordering::Release);
        live.wait_ms.0.fetch_add(1_500_000, Ordering::Release);
        live.requests.fetch_add(3, Ordering::Release);
        let mut snap = live.snapshot();
        assert_eq!((snap.hits, snap.wait_ms, snap.requests), ([0, 2], 1.5, 3));
        snap.evictions = 1;

        assert_eq!(
            render_prometheus(&snap),
            "# HELP demo_hits_total Hits.\n# TYPE demo_hits_total counter\n\
             demo_hits_total{tier=\"ram\"} 0\ndemo_hits_total{tier=\"disk\"} 2\n\
             # HELP demo_retired_total Entries retired, by reason.\n\
             # TYPE demo_retired_total counter\n\
             demo_retired_total{reason=\"evicted\"} 1\n\
             demo_retired_total{reason=\"expired\"} 0\n\
             # HELP demo_wait_seconds_total Wait.\n# TYPE demo_wait_seconds_total counter\n\
             demo_wait_seconds_total 0.0015\n\
             # HELP demo_requests Requests.\n# TYPE demo_requests gauge\ndemo_requests 3\n"
        );

        let mut total = Shard {
            entries: 1,
            bytes: 10,
        };
        total.merge(&Shard {
            entries: 2,
            bytes: 5,
        });
        assert_eq!(
            total,
            Shard {
                entries: 3,
                bytes: 15
            }
        );
    }
}
