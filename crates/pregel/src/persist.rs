//! [`Persist`] implementations for the runtime's coordinator-side state:
//! global values, the broadcast/aggregation maps, and the run metrics.
//!
//! These encodings are part of the snapshot format. Fields are written in
//! declaration order with the fixed little-endian codec from `gm-ckpt`, so
//! identical runs produce byte-identical sections (floats are encoded via
//! `to_bits`, map entries in key order).

use crate::globals::{AggMap, Globals};
use crate::metrics::{Metrics, RecoveryStats, SpillStats, SuperstepMetrics};
use crate::value::{GlobalValue, ReduceOp};
use gm_ckpt::{ByteReader, CkptError, Persist};

impl Persist for GlobalValue {
    fn persist(&self, out: &mut Vec<u8>) {
        match self {
            GlobalValue::Int(v) => {
                out.push(0);
                v.persist(out);
            }
            GlobalValue::Double(v) => {
                out.push(1);
                v.persist(out);
            }
            GlobalValue::Bool(v) => {
                out.push(2);
                v.persist(out);
            }
            GlobalValue::Node(v) => {
                out.push(3);
                v.persist(out);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        match r.read_u8()? {
            0 => Ok(GlobalValue::Int(i64::restore(r)?)),
            1 => Ok(GlobalValue::Double(f64::restore(r)?)),
            2 => Ok(GlobalValue::Bool(bool::restore(r)?)),
            3 => Ok(GlobalValue::Node(u32::restore(r)?)),
            t => Err(CkptError::Decode(format!(
                "invalid GlobalValue tag {t:#04x}"
            ))),
        }
    }
}

impl Persist for ReduceOp {
    fn persist(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => 1,
            ReduceOp::Max => 2,
            ReduceOp::Or => 3,
            ReduceOp::And => 4,
        });
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        match r.read_u8()? {
            0 => Ok(ReduceOp::Sum),
            1 => Ok(ReduceOp::Min),
            2 => Ok(ReduceOp::Max),
            3 => Ok(ReduceOp::Or),
            4 => Ok(ReduceOp::And),
            t => Err(CkptError::Decode(format!("invalid ReduceOp tag {t:#04x}"))),
        }
    }
}

impl Persist for Globals {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        // `iter` yields entries in key order, so the encoding is canonical.
        for (key, value) in self.iter() {
            (key.len() as u64).persist(out);
            out.extend_from_slice(key.as_bytes());
            value.persist(out);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let len = r.read_len(1)?;
        let mut globals = Globals::new();
        for _ in 0..len {
            let key = String::restore(r)?;
            let value = GlobalValue::restore(r)?;
            globals.put(&key, value);
        }
        Ok(globals)
    }
}

impl Persist for AggMap {
    fn persist(&self, out: &mut Vec<u8>) {
        (self.len() as u64).persist(out);
        for (key, op, value) in self.iter() {
            (key.len() as u64).persist(out);
            out.extend_from_slice(key.as_bytes());
            op.persist(out);
            value.persist(out);
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        let len = r.read_len(1)?;
        let mut agg = AggMap::new();
        for _ in 0..len {
            let key = String::restore(r)?;
            let op = ReduceOp::restore(r)?;
            let value = GlobalValue::restore(r)?;
            // Each key appears once in the encoding, so this insert never
            // actually combines.
            agg.reduce(&key, op, value);
        }
        Ok(agg)
    }
}

impl Persist for SuperstepMetrics {
    fn persist(&self, out: &mut Vec<u8>) {
        self.active_vertices.persist(out);
        self.messages_sent.persist(out);
        self.message_bytes.persist(out);
        self.remote_messages.persist(out);
        self.remote_message_bytes.persist(out);
        self.compute_time.persist(out);
        self.combine_time.persist(out);
        self.exchange_time.persist(out);
        self.master_time.persist(out);
        self.barrier_time.persist(out);
        self.pulled.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(SuperstepMetrics {
            active_vertices: Persist::restore(r)?,
            messages_sent: Persist::restore(r)?,
            message_bytes: Persist::restore(r)?,
            remote_messages: Persist::restore(r)?,
            remote_message_bytes: Persist::restore(r)?,
            compute_time: Persist::restore(r)?,
            combine_time: Persist::restore(r)?,
            exchange_time: Persist::restore(r)?,
            master_time: Persist::restore(r)?,
            barrier_time: Persist::restore(r)?,
            pulled: Persist::restore(r)?,
        })
    }
}

impl Persist for RecoveryStats {
    fn persist(&self, out: &mut Vec<u8>) {
        self.checkpoints_written.persist(out);
        self.checkpoint_failures.persist(out);
        self.snapshot_bytes.persist(out);
        self.restores.persist(out);
        self.corrupt_snapshots_discarded.persist(out);
        self.restarts.persist(out);
        self.wasted_supersteps.persist(out);
        self.wasted_time.persist(out);
        self.checkpoint_time.persist(out);
        self.restore_time.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(RecoveryStats {
            checkpoints_written: Persist::restore(r)?,
            checkpoint_failures: Persist::restore(r)?,
            snapshot_bytes: Persist::restore(r)?,
            restores: Persist::restore(r)?,
            corrupt_snapshots_discarded: Persist::restore(r)?,
            restarts: Persist::restore(r)?,
            wasted_supersteps: Persist::restore(r)?,
            wasted_time: Persist::restore(r)?,
            checkpoint_time: Persist::restore(r)?,
            restore_time: Persist::restore(r)?,
        })
    }
}

impl Persist for SpillStats {
    fn persist(&self, out: &mut Vec<u8>) {
        self.buckets_spilled.persist(out);
        self.spilled_message_bytes.persist(out);
        self.spill_file_bytes.persist(out);
        self.files_replayed.persist(out);
        self.spill_write_time.persist(out);
        self.spill_read_time.persist(out);
        self.peak_in_flight_bytes.persist(out);
        self.pull_bypassed_supersteps.persist(out);
        self.pull_bypassed_bytes.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(SpillStats {
            buckets_spilled: Persist::restore(r)?,
            spilled_message_bytes: Persist::restore(r)?,
            spill_file_bytes: Persist::restore(r)?,
            files_replayed: Persist::restore(r)?,
            spill_write_time: Persist::restore(r)?,
            spill_read_time: Persist::restore(r)?,
            peak_in_flight_bytes: Persist::restore(r)?,
            pull_bypassed_supersteps: Persist::restore(r)?,
            pull_bypassed_bytes: Persist::restore(r)?,
        })
    }
}

impl Persist for Metrics {
    fn persist(&self, out: &mut Vec<u8>) {
        self.supersteps.persist(out);
        self.total_messages.persist(out);
        self.total_message_bytes.persist(out);
        self.remote_messages.persist(out);
        self.remote_message_bytes.persist(out);
        self.elapsed.persist(out);
        self.compute_time.persist(out);
        self.combine_time.persist(out);
        self.exchange_time.persist(out);
        self.master_time.persist(out);
        self.barrier_time.persist(out);
        self.per_superstep.persist(out);
        self.recovery.persist(out);
        self.spill.persist(out);
        self.pull_supersteps.persist(out);
        self.direction_switches.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(Metrics {
            supersteps: Persist::restore(r)?,
            total_messages: Persist::restore(r)?,
            total_message_bytes: Persist::restore(r)?,
            remote_messages: Persist::restore(r)?,
            remote_message_bytes: Persist::restore(r)?,
            elapsed: Persist::restore(r)?,
            compute_time: Persist::restore(r)?,
            combine_time: Persist::restore(r)?,
            exchange_time: Persist::restore(r)?,
            master_time: Persist::restore(r)?,
            barrier_time: Persist::restore(r)?,
            per_superstep: Persist::restore(r)?,
            recovery: Persist::restore(r)?,
            spill: Persist::restore(r)?,
            pull_supersteps: Persist::restore(r)?,
            direction_switches: Persist::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn global_value_round_trips() {
        for v in [
            GlobalValue::Int(-42),
            GlobalValue::Double(std::f64::consts::E),
            GlobalValue::Bool(true),
            GlobalValue::Node(17),
        ] {
            assert_eq!(GlobalValue::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        assert!(GlobalValue::from_bytes(&[9]).is_err());
    }

    #[test]
    fn reduce_op_round_trips() {
        for op in [
            ReduceOp::Sum,
            ReduceOp::Min,
            ReduceOp::Max,
            ReduceOp::Or,
            ReduceOp::And,
        ] {
            assert_eq!(ReduceOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        assert!(ReduceOp::from_bytes(&[7]).is_err());
    }

    #[test]
    fn globals_round_trip_in_key_order() {
        let mut g = Globals::new();
        g.put("z", GlobalValue::Int(1));
        g.put("_state", GlobalValue::Node(3));
        g.put("K", GlobalValue::Double(0.5));
        let back = Globals::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back, g);
        // Insertion order must not matter: the encoding is canonical.
        let mut g2 = Globals::new();
        g2.put("K", GlobalValue::Double(0.5));
        g2.put("z", GlobalValue::Int(1));
        g2.put("_state", GlobalValue::Node(3));
        assert_eq!(g.to_bytes(), g2.to_bytes());
    }

    #[test]
    fn agg_map_round_trips() {
        let mut a = AggMap::new();
        a.reduce("sum", ReduceOp::Sum, GlobalValue::Int(41));
        a.reduce("sum", ReduceOp::Sum, GlobalValue::Int(1));
        a.reduce("min", ReduceOp::Min, GlobalValue::Double(2.5));
        a.reduce("any", ReduceOp::Or, GlobalValue::Bool(false));
        let back = AggMap::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.get("sum"), Some(GlobalValue::Int(42)));
    }

    /// The GMCK `coord` section carries the previous superstep's
    /// aggregates, so these bytes are part of the snapshot format: count,
    /// then per key in byte order its length, bytes, op tag and tagged
    /// value, whatever order the keys were written in.
    #[test]
    fn agg_map_bytes_match_the_golden() {
        const GOLDEN: &[u8] = b"\x03\0\0\0\0\0\0\0\
            \x01\0\0\0\0\0\0\0S\x00\x00\x07\0\0\0\0\0\0\0\
            \x01\0\0\0\0\0\0\0m\x01\x01\0\0\0\0\0\0\x04\x40\
            \x02\0\0\0\0\0\0\0or\x03\x02\x01";
        let mut a = AggMap::new();
        a.reduce("or", ReduceOp::Or, GlobalValue::Bool(false));
        a.reduce("S", ReduceOp::Sum, GlobalValue::Int(5));
        a.reduce("m", ReduceOp::Min, GlobalValue::Double(4.0));
        a.reduce("or", ReduceOp::Or, GlobalValue::Bool(true));
        a.reduce("m", ReduceOp::Min, GlobalValue::Double(2.5));
        a.reduce("S", ReduceOp::Sum, GlobalValue::Int(2));
        assert_eq!(a.to_bytes(), GOLDEN);
        let back = AggMap::from_bytes(GOLDEN).unwrap();
        assert_eq!(back, a);
        let entries: Vec<_> = back.iter().collect();
        assert_eq!(
            entries,
            [
                ("S", ReduceOp::Sum, GlobalValue::Int(7)),
                ("m", ReduceOp::Min, GlobalValue::Double(2.5)),
                ("or", ReduceOp::Or, GlobalValue::Bool(true)),
            ]
        );
    }

    #[test]
    fn metrics_round_trip() {
        let mut m = Metrics {
            supersteps: 4,
            total_messages: 100,
            total_message_bytes: 800,
            remote_messages: 30,
            remote_message_bytes: 240,
            elapsed: Duration::from_micros(5000),
            ..Metrics::default()
        };
        m.record(SuperstepMetrics {
            active_vertices: 10,
            messages_sent: 50,
            message_bytes: 400,
            compute_time: Duration::from_micros(120),
            master_time: Duration::from_micros(3),
            ..SuperstepMetrics::default()
        });
        m.record(SuperstepMetrics {
            active_vertices: 10,
            messages_sent: 50,
            pulled: true,
            ..SuperstepMetrics::default()
        });
        m.recovery.checkpoints_written = 2;
        m.recovery.snapshot_bytes = 1234;
        m.recovery.checkpoint_time = Duration::from_micros(77);
        m.recovery.wasted_supersteps = 3;
        m.recovery.wasted_time = Duration::from_micros(55);
        m.spill.buckets_spilled = 4;
        m.spill.spill_file_bytes = 999;
        m.spill.spill_write_time = Duration::from_micros(12);
        m.spill.peak_in_flight_bytes = 4096;
        m.spill.pull_bypassed_supersteps = 1;
        m.spill.pull_bypassed_bytes = 400;

        let back = Metrics::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.supersteps, m.supersteps);
        assert_eq!(back.total_messages, m.total_messages);
        assert_eq!(back.total_message_bytes, m.total_message_bytes);
        assert_eq!(back.elapsed, m.elapsed);
        assert_eq!(back.per_superstep, m.per_superstep);
        assert_eq!(back.recovery, m.recovery);
        assert_eq!(back.spill, m.spill);
        assert_eq!(back.pull_supersteps, 1);
        assert_eq!(back.direction_switches, 1);
    }
}
