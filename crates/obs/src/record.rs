//! The span record: what a closed span is, as traces store it and exporters
//! and the profile fold read it.

/// A closed span as a [`Trace`](crate::tracer::Trace) stores it and exporters
/// read it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace (request) this span belongs to.
    pub trace: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for roots.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Small dense per-process thread number (not the OS tid).
    pub thread: u64,
    /// Structured counters attached via
    /// [`SpanGuard::field`](crate::tracer::SpanGuard::field).
    pub fields: Fields,
    /// Optional dynamic annotation (e.g. a relation name).
    pub label: Option<String>,
}

impl SpanRecord {
    /// The counter attached under `key`; 0 when there is none.
    pub fn field(&self, key: &str) -> u64 {
        let found = self.fields.iter().find(|(k, _)| *k == key);
        found.map_or(0, |(_, v)| *v)
    }
}

/// A span's counters, held inline so that a span without a label allocates
/// nothing: at most [`Fields::MAX`], a further one is not recorded. Reads
/// as a slice of `(key, value)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fields {
    len: usize,
    slots: [(&'static str, u64); Fields::MAX],
}

impl Fields {
    pub const MAX: usize = 4;

    pub(crate) fn push(&mut self, field: (&'static str, u64)) {
        if let Some(slot) = self.slots.get_mut(self.len) {
            *slot = field;
            self.len += 1;
        }
    }
}

impl std::ops::Deref for Fields {
    type Target = [(&'static str, u64)];

    fn deref(&self) -> &Self::Target {
        &self.slots[..self.len]
    }
}

impl FromIterator<(&'static str, u64)> for Fields {
    fn from_iter<I: IntoIterator<Item = (&'static str, u64)>>(iter: I) -> Self {
        let mut fields = Fields::default();
        iter.into_iter().for_each(|field| fields.push(field));
        fields
    }
}
