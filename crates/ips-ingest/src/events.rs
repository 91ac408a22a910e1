//! Event types for the ingestion pipeline (§III-A).
//!
//! Three input streams feed the join: *impressions* (an item actually shown
//! to a user, server- or client-side), *actions* (what the user did), and
//! *feature records* (the item's categorical signals from backend services).
//! The join's output is the [`InstanceRecord`] — "basically a bag of
//! arbitrary key-value pairs" that both model training and IPS consume.

use ips_types::{ActionTypeId, CountVector, FeatureId, ProfileId, SlotId, Timestamp};

/// An item id. Items are the unit impressions/actions refer to; the feature
/// stream maps them to categorical features.
pub type ItemId = u64;

/// Where an impression was observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImpressionSource {
    Server,
    Client,
}

/// An item was presented to a user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImpressionEvent {
    pub user: ProfileId,
    pub item: ItemId,
    pub at: Timestamp,
    pub source: ImpressionSource,
}

/// A user acted on an item ('like', 'comment', 'share', 'click', ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionEvent {
    pub user: ProfileId,
    pub item: ItemId,
    pub action: ActionTypeId,
    pub at: Timestamp,
    /// Attribute index this action increments in the count vector (e.g.
    /// clicks = 0, likes = 1, shares = 2).
    pub attribute: usize,
}

/// Backend signals for an item: its categorisation and feature identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FeatureEvent {
    pub item: ItemId,
    pub slot: SlotId,
    pub action_type: ActionTypeId,
    pub feature: FeatureId,
    pub at: Timestamp,
}

/// The joined training instance, ready for IPS ingestion.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceRecord {
    pub user: ProfileId,
    pub item: ItemId,
    /// Event time of the triggering action.
    pub at: Timestamp,
    pub slot: SlotId,
    pub action_type: ActionTypeId,
    pub feature: FeatureId,
    /// Count contribution (one-hot on the action's attribute by default).
    pub counts: CountVector,
    /// When the *impression* happened (training labels need it; also a
    /// freshness baseline).
    pub impression_at: Timestamp,
}

impl InstanceRecord {
    /// Rough serialized size, used by topic-lag and throughput accounting.
    /// The counts are inline, so the struct's size is the whole footprint.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<InstanceRecord>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_record_size_accounting() {
        let rec = InstanceRecord {
            user: ProfileId::new(1),
            item: 2,
            at: Timestamp::from_millis(3),
            slot: SlotId::new(4),
            action_type: ActionTypeId::new(5),
            feature: FeatureId::new(6),
            counts: CountVector::single(1),
            impression_at: Timestamp::from_millis(2),
        };
        // Five 8-byte ids and times, two 4-byte ids, 72 bytes of counts.
        assert_eq!(rec.approx_bytes(), 120);
    }
}
