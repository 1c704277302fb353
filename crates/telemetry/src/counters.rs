//! The counter table: every plain counter and gauge in the workspace is
//! declared as one row, and the atomic bank, the plain-integer report,
//! the Prometheus text page and the JSON object are all derived from the
//! rows (DESIGN.md §10).
//!
//! A row is `(field, exposition name, help, kind, counts-as-fault?)`.
//! [`counter_table!`](crate::counter_table) turns a list of rows into a
//! struct whose public fields are the rows — [`Counter`]/[`Gauge`] cells
//! for a `bank`, `u64`s for a `report` — plus a `ROWS` constant and a
//! `values()` read in row order; the renderers here take those two
//! arrays, so a new counter is one row and its increment site.
//!
//! [`Counter`]: crate::Counter
//! [`Gauge`]: crate::Gauge

use std::fmt::{Display, Write};

/// How a row's value moves, which is also its Prometheus `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Only ever rises.
    Counter,
    /// Last value wins.
    Gauge,
}

impl Kind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One declared counter or gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The struct field, which is also the JSON key.
    pub field: &'static str,
    /// The Prometheus series name; empty for a row no text page carries.
    pub name: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// Whether a non-zero value means a fault was observed.
    pub fault: bool,
}

/// Declares a table of counters once.
///
/// ```
/// easched_telemetry::counter_table! {
///     /// Live cells.
///     #[derive(Debug, Default)]
///     pub bank Cells(pub);
///     /// One read of every cell.
///     #[derive(Debug, Default, PartialEq)]
///     pub report Reading;
///     /// Requests served.
///     served: counter = "demo_served_total", "Requests served",
///     /// Requests that failed.
///     failed: counter fault = "demo_failed_total", "Requests that failed",
/// }
/// let cells = Cells::default();
/// cells.served.inc();
/// assert_eq!(cells.report(), Reading { served: 1, failed: 0 });
/// assert_eq!(Reading::ROWS[1].name, "demo_failed_total");
/// ```
///
/// A row is `field: counter|gauge [fault] [= "series name", "help"]`;
/// a row without a series name is on no text page. `bank Name(vis)` makes the fields `vis` [`Counter`]/[`Gauge`] cells
/// and may carry extra fields in braces; `report Name` makes them `pub
/// u64` and adds `from_values`; naming both adds `Bank::report()`.
///
/// [`Counter`]: crate::Counter
/// [`Gauge`]: crate::Gauge
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$bmeta:meta])* $bvis:vis bank $bank:ident($cvis:vis);
        $(#[$rmeta:meta])* $rvis:vis report $report:ident;
        $($rows:tt)+
    ) => {
        $crate::counter_table! { $(#[$bmeta])* $bvis bank $bank($cvis) {} $($rows)+ }
        $crate::counter_table! { $(#[$rmeta])* $rvis report $report; $($rows)+ }
        impl $bank {
            /// One plain-integer read of every cell.
            $rvis fn report(&self) -> $report {
                $report::from_values(self.values())
            }
        }
    };
    (
        $(#[$meta:meta])* $vis:vis bank $bank:ident($cvis:vis) {
            $($(#[$emeta:meta])* $evis:vis $extra:ident: $ety:ty,)*
        }
        $($(#[$fmeta:meta])* $field:ident: $kind:ident $($fault:ident)?
            $(= $name:literal, $help:literal)?,)+
    ) => {
        $(#[$meta])*
        $vis struct $bank {
            $($(#[$fmeta])* $cvis $field: $crate::counter_table!(@cell $kind),)+
            $($(#[$emeta])* $evis $extra: $ety,)*
        }
        impl $bank {
            $crate::counter_table! { @rows $($field: $kind [$($fault)?] [$($name, $help)?],)+ }
            /// Every cell's current value, in row order.
            pub(crate) fn values(&self) -> [u64; Self::N] {
                [$(self.$field.get()),+]
            }
        }
    };
    (
        $(#[$meta:meta])* $vis:vis report $report:ident;
        $($(#[$fmeta:meta])* $field:ident: $kind:ident $($fault:ident)?
            $(= $name:literal, $help:literal)?,)+
    ) => {
        $(#[$meta])*
        $vis struct $report {
            $($(#[$fmeta])* pub $field: u64,)+
        }
        impl $report {
            $crate::counter_table! { @rows $($field: $kind [$($fault)?] [$($name, $help)?],)+ }
            /// Every field's value, in row order.
            pub fn values(&self) -> [u64; Self::N] {
                [$(self.$field),+]
            }
            /// The inverse of [`values`](Self::values).
            pub fn from_values(values: [u64; Self::N]) -> Self {
                let [$($field),+] = values;
                Self { $($field),+ }
            }
        }
    };
    (@rows $($field:ident: $kind:ident [$($fault:ident)?] [$($name:literal, $help:literal)?],)+) => {
        /// Number of rows.
        pub(crate) const N: usize = [$(stringify!($field)),+].len();
        /// The declaration rows, in order.
        pub const ROWS: [$crate::Row; Self::N] = [$($crate::Row {
            field: stringify!($field),
            name: $crate::counter_table!(@or "", $($name)?),
            help: $crate::counter_table!(@or "", $($help)?),
            kind: $crate::counter_table!(@kind $kind),
            fault: $crate::counter_table!(@fault $($fault)?),
        }),+];
    };
    (@cell counter) => { $crate::Counter };
    (@cell gauge) => { $crate::Gauge };
    (@kind counter) => { $crate::Kind::Counter };
    (@kind gauge) => { $crate::Kind::Gauge };
    (@fault) => { false };
    (@fault fault) => { true };
    (@or $default:expr,) => { $default };
    (@or $default:expr, $given:literal) => { $given };
}

/// Whether every row flagged as a fault reads zero.
pub fn fault_free<const N: usize>(rows: &[Row; N], values: &[u64; N]) -> bool {
    rows.iter()
        .zip(values)
        .all(|(row, &v)| !row.fault || v == 0)
}

/// Appends a family's `# HELP` and `# TYPE` lines.
pub fn push_meta(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// Appends each row that declares a series name as a Prometheus family:
/// `# HELP`, `# TYPE`, one unlabelled sample.
pub fn expose_rows<const N: usize>(out: &mut String, rows: &[Row; N], values: &[u64; N]) {
    for (row, v) in rows.iter().zip(values) {
        if row.name.is_empty() {
            continue;
        }
        push_meta(out, row.name, row.help, row.kind.as_str());
        let _ = writeln!(out, "{} {v}", row.name);
    }
}

/// Appends each row that declares a series name as a Prometheus family
/// typed once, then one `name{label="<series label>"} value` sample per
/// series. Series labels are escaped here.
pub fn expose_rows_labelled<const N: usize>(
    out: &mut String,
    rows: &[Row; N],
    label: &str,
    series: &[(&str, [u64; N])],
) {
    let names: Vec<String> = series
        .iter()
        .map(|(name, _)| crate::metrics::escape_label_value(name))
        .collect();
    for (i, row) in rows.iter().enumerate() {
        if row.name.is_empty() {
            continue;
        }
        push_meta(out, row.name, row.help, row.kind.as_str());
        for (name, (_, values)) in names.iter().zip(series) {
            let _ = writeln!(out, "{}{{{label}=\"{name}\"}} {}", row.name, values[i]);
        }
    }
}

/// Appends `"key":value` to a JSON object under construction, with the
/// comma when it is not the first member.
pub fn push_json_field(out: &mut String, key: &str, value: impl Display) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{key}\":{value}");
}

/// Appends every row as a `"field":value` JSON member.
pub fn push_json_rows<const N: usize>(out: &mut String, rows: &[Row; N], values: &[u64; N]) {
    for (row, v) in rows.iter().zip(values) {
        push_json_field(out, row.field, v);
    }
}
