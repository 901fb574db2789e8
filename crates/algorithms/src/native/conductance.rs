//! @generated by `gm-core::rustgen` from the Green-Marl procedure `conductance`.
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
    globals: &[("_ag1", Ty::Int), ("din", Ty::Int), ("_ag2", Ty::Int), ("dout", Ty::Int), ("_ag3", Ty::Int), ("cross", Ty::Int), ("m", Ty::Double)],
    node_props: &[("member", Ty::Bool), ("_tp1", Ty::Int)],
    edge_props: &[],
    params: &[],
    ret: Some(Ty::Double),
    states: &[
        State { kernel: Some(&[]), pull: PullMode::Captured },
        State { kernel: Some(&[]), pull: PullMode::Unsupported },
        State { kernel: Some(&[]), pull: PullMode::Unsupported },
        State { kernel: Some(&[]), pull: PullMode::Unsupported },
        State { kernel: Some(&[]), pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
        State { kernel: None, pull: PullMode::Unsupported },
    ],
};

/// Per-vertex state: one native field per node property.
#[derive(Clone, Debug)]
pub struct VertexValue {
    pub member: bool,
    pub _tp1: i64,
    pub in_nbrs: Vec<u32>,
}

impl Row for VertexValue {
    fn build(_: usize, v: impl Fn(usize) -> Value) -> Self {
        VertexValue {
            member: v(0).as_bool(),
            _tp1: v(1).as_int(),
            in_nbrs: Vec::new(),
        }
    }

    fn get(&self, slot: usize) -> Value {
        match slot {
            0 => Value::Bool(self.member),
            1 => Value::Int(self._tp1),
            _ => unreachable!(),
        }
    }

    fn in_nbrs(&self) -> &[u32] {
        &self.in_nbrs
    }
}

impl Persist for VertexValue {
    fn persist(&self, out: &mut Vec<u8>) {
        self.member.persist(out);
        self._tp1.persist(out);
        self.in_nbrs.persist(out);
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(VertexValue {
            member: Persist::restore(r)?,
            _tp1: Persist::restore(r)?,
            in_nbrs: Persist::restore(r)?,
        })
    }
}

/// The master globals: one native field per global.
pub struct Globals {
    pub _ag1: i64,
    pub din: i64,
    pub _ag2: i64,
    pub dout: i64,
    pub _ag3: i64,
    pub cross: i64,
    pub m: f64,
}

impl Row for Globals {
    fn build(_: usize, v: impl Fn(usize) -> Value) -> Self {
        Globals {
            _ag1: v(0).as_int(),
            din: v(1).as_int(),
            _ag2: v(2).as_int(),
            dout: v(3).as_int(),
            _ag3: v(4).as_int(),
            cross: v(5).as_int(),
            m: v(6).as_f64(),
        }
    }

    fn get(&self, slot: usize) -> Value {
        match slot {
            0 => Value::Int(self._ag1),
            1 => Value::Int(self.din),
            2 => Value::Int(self._ag2),
            3 => Value::Int(self.dout),
            4 => Value::Int(self._ag3),
            5 => Value::Int(self.cross),
            6 => Value::Double(self.m),
            _ => unreachable!(),
        }
    }
}

/// Messages: one monomorphized variant per tag.
#[derive(Clone, Copy, Debug)]
pub enum Msg {
    M0 {},
    M1 { sender: u32 },
}

impl Persist for Msg {
    fn persist(&self, out: &mut Vec<u8>) {
        match *self {
            Msg::M0 {} => {
                0u8.persist(out);
            }
            Msg::M1 { sender } => {
                1u8.persist(out);
                sender.persist(out);
            }
        }
    }

    fn restore(r: &mut ByteReader<'_>) -> Result<Self, CkptError> {
        Ok(match u8::restore(r)? {
            0u8 => Msg::M0 {},
            1u8 => Msg::M1 { sender: Persist::restore(r)? },
            t => return Err(CkptError::Decode(format!("invalid Msg tag {t:#04x}"))),
        })
    }
}

/// The compiled program's vertex side: its edge columns.
pub struct Conductance {}

impl Conductance {
    fn vertex_0(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        ctx.send_to_nbrs(Msg::M1 { sender: self_id });
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
                    Msg::M1 { sender: p_sender } => {
                        value.in_nbrs.push(p_sender);
                    }
                    _ => {}
                }
            });
        }
        if value.member {
            ctx.reduce_global("_ag1", ReduceOp::Sum, GlobalValue::Int((out_degree as i64)));
        }
    }

    fn vertex_2(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        let filter_ok: bool = (!(value.member));
        if filter_ok {
            ctx.reduce_global("_ag2", ReduceOp::Sum, GlobalValue::Int((out_degree as i64)));
        }
    }

    fn vertex_3(
        &self,
        g: &Globals,
        ctx: &mut VertexContext<'_, '_, Msg>,
        value: &mut VertexValue,
        messages: Inbox<'_, Msg>,
    ) {
        let self_id: u32 = ctx.id().0;
        let out_degree: u32 = ctx.out_degree();
        if value.member {
            let v1: i64 = 0i64;
            value._tp1 = v1;
        }
        if (!(value.member)) {
            let v2: Msg = Msg::M0 {  };
            for &nbr in value.in_nbrs.iter() {
                ctx.send(NodeId(nbr), v2);
            }
        }
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
        if !messages.is_empty() {
            let snap_member: bool = value.member;
            let snap__tp1: i64 = value._tp1;
            messages.for_each(|msg| {
                let in_deg: i64 = value.in_nbrs.len() as i64;
                match *msg {
                    Msg::M0 {} => {
                        if !(snap_member) {
                            return;
                        }
                        let v3: i64 = 1i64;
                        value._tp1 = value._tp1.wrapping_add(v3);
                    }
                    _ => {}
                }
            });
        }
        let filter_ok: bool = value.member;
        if filter_ok {
            ctx.reduce_global("_ag3", ReduceOp::Sum, GlobalValue::Int(value._tp1));
        }
    }
}

impl Leg for Conductance {
    type Globals = Globals;
    type VertexValue = VertexValue;
    type Message = Msg;

    fn master(&self, state: usize, g: &mut Globals, m: &mut Master<'_>) {
        match state {
            1 => {
                let v4: i64 = 0i64;
                g._ag1 = v4;
            }
            2 => {
                let v5: i64 = g._ag1;
                g.din = v5;
                let v6: i64 = 0i64;
                g._ag2 = v6;
            }
            3 => {
                let v7: i64 = g._ag2;
                g.dout = v7;
                let v8: i64 = 0i64;
                g._ag3 = v8;
            }
            5 => {
                let v9: i64 = g._ag3;
                g.cross = v9;
                let v10: f64 = ((if (g.din < g.dout) { g.din } else { g.dout }) as f64);
                g.m = v10;
                if (g.m == 0.0f64) {
                    m.finish(Some(Value::Double((if (g.cross == 0i64) { 0.0f64 } else { f64::INFINITY }))));
                    return;
                } else {
                    m.finish(Some(Value::Double(((g.cross as f64) / g.m))));
                    return;
                }
            }
            _ => {}
        }
    }

    fn post(&self, state: usize, g: &mut Globals, m: &mut Master<'_>, agg: Option<&MasterContext<'_>>) {
        match state {
            1 => {
                if let Some(ctx) = agg {
                    if let Some(gv) = ctx.agg("_ag1") {
                        let inc: i64 = match gv { GlobalValue::Int(x) => x, other => panic!("aggregate `_ag1` holds {other:?}") };
                        g._ag1 = g._ag1.wrapping_add(inc);
                    }
                }
            }
            2 => {
                if let Some(ctx) = agg {
                    if let Some(gv) = ctx.agg("_ag2") {
                        let inc: i64 = match gv { GlobalValue::Int(x) => x, other => panic!("aggregate `_ag2` holds {other:?}") };
                        g._ag2 = g._ag2.wrapping_add(inc);
                    }
                }
            }
            4 => {
                if let Some(ctx) = agg {
                    if let Some(gv) = ctx.agg("_ag3") {
                        let inc: i64 = match gv { GlobalValue::Int(x) => x, other => panic!("aggregate `_ag3` holds {other:?}") };
                        g._ag3 = g._ag3.wrapping_add(inc);
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
            3 => Some(4),
            4 => Some(5),
            5 => Some(6),
            _ => None,
        }
    }

    fn message_bytes(&self, m: &Msg) -> u64 {
        match *m {
            Msg::M0 { .. } => 5u64,
            Msg::M1 { .. } => 9u64,
        }
    }

    fn in_nbr(&self, m: &Msg) -> Option<u32> {
        match *m {
            Msg::M1 { sender } => Some(sender),
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
            2 => self.vertex_2(g, ctx, value, messages),
            3 => self.vertex_3(g, ctx, value, messages),
            4 => self.vertex_4(g, ctx, value, messages),
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
    gm_interp::run_leg(&SIGNATURE, graph, args, seed, config, |_| Conductance {})
}
