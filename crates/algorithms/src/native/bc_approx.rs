//! @generated by `gm-core::rustgen` from the Green-Marl procedure `bc_approx`.
//! DO NOT EDIT: regenerate with `gmc emit-rust` (goldens: rerun the
//! `rustgen_golden` test with `GM_UPDATE_GOLDEN=1`).
#![allow(clippy::all)]
#![allow(dead_code, non_snake_case, unreachable_patterns, unused_assignments, unused_imports, unused_mut, unused_parens, unused_variables)]

use gm_core::seqinterp::ArgValue;
use gm_core::types::Ty;
use gm_core::value::Value;
use gm_graph::{EdgeId, Graph, NodeId};
use gm_interp::shell::{Leg, Master, Row, Signature, State};
use gm_interp::{CompiledOutcome, RunError};
use gm_pregel::{
    ByteReader, CkptError, GlobalValue, Inbox, MasterContext, Persist, PregelConfig,
    PullMode, ReduceOp, VertexContext,
};
use std::collections::HashMap;

/// The program's interface, as `gm_interp::with_signature` derives it.
pub static SIGNATURE: Signature<'static> = Signature {
    globals: &[("K", Ty::Int), ("k", Ty::Int), ("s", Ty::Node), ("_fin2", Ty::Bool), ("_cur3", Ty::Int), ("_rt6", Ty::Node), ("_ag3", Ty::Double)],
    node_props: &[("bc", Ty::Double), ("sigma", Ty::Double), ("delta", Ty::Double), ("_lev1", Ty::Int), ("_tp1", Ty::Double), ("_tp2", Ty::Double)],
    edge_props: &[],
    params: &[("K", Ty::Int)],
    ret: Some(Ty::Double),
    states: &[
        State { kernel: Some(&[]), pull: PullMode::Captured },
        State { kernel: Some(&[]), pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: Some(&[2, 5]), pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: Some(&[4]), pull: PullMode::Captured },
        State { kernel: Some(&[4]), pull: PullMode::Captured },
        State { kernel: Some(&[4]), pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: Some(&[4]), pull: PullMode::Unsupported },
        State { kernel: Some(&[4, 2]), pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: Some(&[]), pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
    ],
};

/// Per-vertex state: one native field per node property.
#[derive(Clone, Debug)]
pub struct VertexValue {
    pub bc: f64,
    pub sigma: f64,
    pub delta: f64,
    pub _lev1: i64,
    pub _tp1: f64,
    pub _tp2: f64,
    pub in_nbrs: Vec<u32>,
}

impl Row for VertexValue {
    fn build(_: usize, v: impl Fn(usize) -> Value) -> Self {
        VertexValue {
            bc: v(0).as_f64(),
            sigma: v(1).as_f64(),
            delta: v(2).as_f64(),
            _lev1: v(3).as_int(),
            _tp1: v(4).as_f64(),
            _tp2: v(5).as_f64(),
            in_nbrs: Vec::new(),
        }
    }

    fn get(&self, slot: usize) -> Value {
        match slot {
            0 => Value::Double(self.bc),
            1 => Value::Double(self.sigma),
            2 => Value::Double(self.delta),
            3 => Value::Int(self._lev1),
            4 => Value::Double(self._tp1),
            5 => Value::Double(self._tp2),
            _ => unreachable!(),
        }
    }

    fn in_nbrs(&self) -> &[u32] {
        &self.in_nbrs
    }
}

impl Persist for VertexValue {
    fn persist(&self, out: &mut Vec<u8>) {
        self.bc.persist(out);
        self.sigma.persist(out);
        self.delta.persist(out);
        self._lev1.persist(out);
        self._tp1.persist(out);
        self._tp2.persist(out);
        self.in_nbrs.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(VertexValue {
            bc: Persist::restore(r)?,
            sigma: Persist::restore(r)?,
            delta: Persist::restore(r)?,
            _lev1: Persist::restore(r)?,
            _tp1: Persist::restore(r)?,
            _tp2: Persist::restore(r)?,
            in_nbrs: Persist::restore(r)?,
        })
    }
}

/// The master globals: one native field per global.
pub struct Globals {
    pub k: i64,
    pub k_2: i64,
    pub s: u32,
    pub _fin2: bool,
    pub _cur3: i64,
    pub _rt6: u32,
    pub _ag3: f64,
}

impl Row for Globals {
    fn build(_: usize, v: impl Fn(usize) -> Value) -> Self {
        Globals {
            k: v(0).as_int(),
            k_2: v(1).as_int(),
            s: v(2).as_node(),
            _fin2: v(3).as_bool(),
            _cur3: v(4).as_int(),
            _rt6: v(5).as_node(),
            _ag3: v(6).as_f64(),
        }
    }

    fn get(&self, slot: usize) -> Value {
        match slot {
            0 => Value::Int(self.k),
            1 => Value::Int(self.k_2),
            2 => Value::Node(self.s),
            3 => Value::Bool(self._fin2),
            4 => Value::Int(self._cur3),
            5 => Value::Node(self._rt6),
            6 => Value::Double(self._ag3),
            _ => unreachable!(),
        }
    }
}

/// Messages: one monomorphized variant per tag.
#[derive(Clone, Copy, Debug)]
pub enum Msg {
    M0 { sigma: f64 },
    M1 {},
    M2 { sigma: f64, _x0: f64 },
    M3 { sender: u32 },
}

impl Persist for Msg {
    fn persist(&self, out: &mut Vec<u8>) {
        match *self {
            Msg::M0 { sigma } => {
                0u8.persist(out);
                sigma.persist(out);
            }
            Msg::M1 {} => {
                1u8.persist(out);
            }
            Msg::M2 { sigma, _x0 } => {
                2u8.persist(out);
                sigma.persist(out);
                _x0.persist(out);
            }
            Msg::M3 { sender } => {
                3u8.persist(out);
                sender.persist(out);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(match u8::restore(r)? {
            0u8 => Msg::M0 { sigma: Persist::restore(r)? },
            1u8 => Msg::M1 {},
            2u8 => Msg::M2 { sigma: Persist::restore(r)?, _x0: Persist::restore(r)? },
            3u8 => Msg::M3 { sender: Persist::restore(r)? },
            t => return Err(CkptError::Decode(format!("invalid Msg tag {t:#04x}"))),
        })
    }
}

/// The compiled program's vertex side: its edge columns.
pub struct BcApprox {}

impl BcApprox {
    fn vertex_0(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        ctx.send_to_nbrs(Msg::M3 { sender: self_id });
    }

    fn vertex_1(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if !messages.is_empty() {
            messages.for_each(|msg| {
                let in_deg: i64 = value.in_nbrs.len() as i64;
                match *msg {
                    Msg::M3 { sender: p_sender } => {
                        value.in_nbrs.push(p_sender);
                    }
                    _ => {}
                }
            });
        }
        let v1: f64 = 0.0f64;
        value.bc = v1;
    }

    fn vertex_4(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        let v2: f64 = 0.0f64;
        value.sigma = v2;
        let v3: f64 = 0.0f64;
        value.delta = v3;
        if (self_id == g.s) {
            let v4: f64 = 1.0f64;
            value.sigma = v4;
        }
        let v5: i64 = i64::MAX;
        value._lev1 = v5;
        if (self_id == g._rt6) {
            let v6: i64 = 0i64;
            value._lev1 = v6;
        }
    }

    fn vertex_6(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if (value._lev1 == g._cur3) {
            let v7: f64 = 0.0f64;
            value._tp1 = v7;
        }
        if (value._lev1 == g._cur3.wrapping_sub(1i64)) {
            ctx.send_to_nbrs(Msg::M0 { sigma: value.sigma });
        }
    }

    fn vertex_7(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if !messages.is_empty() {
            let snap_bc: f64 = value.bc;
            let snap_sigma: f64 = value.sigma;
            let snap_delta: f64 = value.delta;
            let snap__lev1: i64 = value._lev1;
            let snap__tp1: f64 = value._tp1;
            let snap__tp2: f64 = value._tp2;
            messages.for_each(|msg| {
                let in_deg: i64 = value.in_nbrs.len() as i64;
                match *msg {
                    Msg::M0 { sigma: p_sigma } => {
                        if !((snap__lev1 == g._cur3)) {
                            return;
                        }
                        let v8: f64 = p_sigma;
                        value._tp1 = (value._tp1 + v8);
                    }
                    _ => {}
                }
            });
        }
        let filter_ok: bool = (value._lev1 == g._cur3);
        if filter_ok {
            let v9: f64 = value._tp1;
            value.sigma = (value.sigma + v9);
            ctx.send_to_nbrs(Msg::M1 {  });
        }
    }

    fn vertex_8(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if !messages.is_empty() {
            let snap_bc: f64 = value.bc;
            let snap_sigma: f64 = value.sigma;
            let snap_delta: f64 = value.delta;
            let snap__lev1: i64 = value._lev1;
            let snap__tp1: f64 = value._tp1;
            let snap__tp2: f64 = value._tp2;
            messages.for_each(|msg| {
                let in_deg: i64 = value.in_nbrs.len() as i64;
                match *msg {
                    Msg::M1 {} => {
                        if !((snap__lev1 == i64::MAX)) {
                            return;
                        }
                        let v10: i64 = g._cur3.wrapping_add(1i64);
                        value._lev1 = v10;
                        ctx.reduce_global("_fin2", ReduceOp::And, GlobalValue::Bool(false));
                    }
                    _ => {}
                }
            });
        }
    }

    fn vertex_10(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if (value._lev1 == g._cur3) {
            let v11: f64 = 0.0f64;
            value._tp2 = v11;
        }
        if (value._lev1 == g._cur3.wrapping_add(1i64)) {
            let v12: Msg = Msg::M2 { sigma: value.sigma, _x0: (1.0f64 + value.delta) };
            for &nbr in value.in_nbrs.iter() {
                ctx.send(NodeId(nbr), v12);
            }
        }
    }

    fn vertex_11(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if !messages.is_empty() {
            let snap_bc: f64 = value.bc;
            let snap_sigma: f64 = value.sigma;
            let snap_delta: f64 = value.delta;
            let snap__lev1: i64 = value._lev1;
            let snap__tp1: f64 = value._tp1;
            let snap__tp2: f64 = value._tp2;
            messages.for_each(|msg| {
                let in_deg: i64 = value.in_nbrs.len() as i64;
                match *msg {
                    Msg::M2 { sigma: p_sigma, _x0: p__x0 } => {
                        if !((snap__lev1 == g._cur3)) {
                            return;
                        }
                        let v13: f64 = ((snap_sigma / p_sigma) * p__x0);
                        value._tp2 = (value._tp2 + v13);
                    }
                    _ => {}
                }
            });
        }
        let filter_ok: bool = (value._lev1 == g._cur3);
        if filter_ok {
            let v14: f64 = value._tp2;
            value.delta = v14;
            if (self_id != g.s) {
                let v15: f64 = value.delta;
                value.bc = (value.bc + v15);
            }
        }
    }

    fn vertex_14(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        ctx.reduce_global("_ag3", ReduceOp::Sum, GlobalValue::Double(value.bc));
    }
}

impl Leg for BcApprox {
    type Globals = Globals;
    type VertexValue = VertexValue;
    type Message = Msg;

    fn master(&self, state: usize, g: &mut Globals, m: &mut Master<'_>) {
        match state {
            2 => {
                let v16: i64 = 0i64;
                g.k_2 = v16;
            }
            4 => {
                let v17: u32 = m.pick_random();
                g.s = v17;
                let v18: bool = false;
                g._fin2 = v18;
                let v19: i64 = (-1i64);
                g._cur3 = v19;
                let v20: u32 = g.s;
                g._rt6 = v20;
            }
            6 => {
                let v21: bool = true;
                g._fin2 = v21;
                let v22: i64 = 1i64;
                g._cur3 = g._cur3.wrapping_add(v22);
            }
            12 => {
                let v23: i64 = 1i64;
                g._cur3 = g._cur3.wrapping_sub(v23);
            }
            13 => {
                let v24: i64 = 1i64;
                g.k_2 = g.k_2.wrapping_add(v24);
            }
            14 => {
                let v25: f64 = 0.0f64;
                g._ag3 = v25;
            }
            15 => {
                m.finish(Some(Value::Double(g._ag3)));
                return;
            }
            _ => {}
        }
    }

    fn post(&self, state: usize, g: &mut Globals, m: &mut Master<'_>, agg: Option<&MasterContext<'_>>) {
        match state {
            8 => {
                if let Some(ctx) = agg {
                    if let Some(gv) = ctx.agg("_fin2") {
                        let inc: bool = match gv { GlobalValue::Bool(x) => x, other => panic!("aggregate `_fin2` holds {other:?}") };
                        g._fin2 = (g._fin2 && inc);
                    }
                }
            }
            14 => {
                if let Some(ctx) = agg {
                    if let Some(gv) = ctx.agg("_ag3") {
                        let inc: f64 = match gv { GlobalValue::Double(x) => x, other => panic!("aggregate `_ag3` holds {other:?}") };
                        g._ag3 = (g._ag3 + inc);
                    }
                }
            }
            _ => {}
        }
    }

    fn transition(&self, state: usize, g: &Globals, m: &mut Master<'_>) -> Option<usize> {
        match state {
            0 => Some(1),
            1 => Some(2),
            2 => Some(3),
            3 => Some(if (g.k_2 < g.k) { 4 } else { 14 }),
            4 => Some(5),
            5 => Some(if (!(g._fin2)) { 6 } else { 9 }),
            6 => Some(7),
            7 => Some(8),
            8 => Some(5),
            9 => Some(if (g._cur3 >= 0i64) { 10 } else { 13 }),
            10 => Some(11),
            11 => Some(12),
            12 => Some(9),
            13 => Some(3),
            14 => Some(15),
            15 => Some(16),
            _ => None,
        }
    }

    fn message_bytes(&self, m: &Msg) -> u64 {
        match *m {
            Msg::M0 { .. } => 13u64,
            Msg::M1 { .. } => 5u64,
            Msg::M2 { .. } => 21u64,
            Msg::M3 { .. } => 9u64,
        }
    }

    fn in_nbr(&self, m: &Msg) -> Option<u32> {
        match *m {
            Msg::M3 { sender } => Some(sender),
            _ => None,
        }
    }

    fn vertex_compute(
        &self,
        state: usize,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        match state {
            0 => self.vertex_0(g, ctx, value, messages),
            1 => self.vertex_1(g, ctx, value, messages),
            4 => self.vertex_4(g, ctx, value, messages),
            6 => self.vertex_6(g, ctx, value, messages),
            7 => self.vertex_7(g, ctx, value, messages),
            8 => self.vertex_8(g, ctx, value, messages),
            10 => self.vertex_10(g, ctx, value, messages),
            11 => self.vertex_11(g, ctx, value, messages),
            14 => self.vertex_14(g, ctx, value, messages),
            _ => {}
        }
    }
}

/// Entry point: the shared `gm_interp` shell around this leg.
pub fn run(
    graph: &Graph,
    args: &HashMap<String, ArgValue>,
    seed: u64,
    config: &PregelConfig,
) -> Result<CompiledOutcome, RunError> {
    gm_interp::run_leg(&SIGNATURE, graph, args, seed, config, |_| BcApprox {})
}
