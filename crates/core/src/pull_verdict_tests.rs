//! Unit cases of the pull verdict [`crate::kernel::lower`] decides for each
//! vertex kernel, one program shape per test. The remaining rules (an edge
//! payload with a global, a deferred write after the send, reverse edges)
//! and the `Recomputed` send site are checked in `kernel`'s own tests.

#[cfg(test)]
mod tests {
    use crate::ast::{AssignOp, BinOp, Expr, ExprKind};
    use crate::kernel::{lower, CPull, Lowered};
    use crate::pir::{
        MessageLayout, PregelProgram, State, Transition, VInstr, VertexKernel, EDGE, SELF,
    };
    use crate::types::Ty;

    /// A one-state program: property `x`, edge property `w`, message tag 0
    /// with field `v`, and `body` as the vertex kernel.
    fn prog_with_body(body: Vec<VInstr>) -> PregelProgram {
        PregelProgram {
            name: "p".into(),
            graph_param: "G".into(),
            scalar_params: vec![],
            node_props: vec![("x".into(), Ty::Double)],
            edge_props: vec![("w".into(), Ty::Double)],
            globals: vec![],
            messages: vec![MessageLayout {
                tag: 0,
                fields: vec![("v".into(), Ty::Double)],
            }],
            uses_in_nbrs: false,
            ret: None,
            states: vec![State {
                master: vec![],
                vertex: Some(VertexKernel {
                    recvs: vec![],
                    filter: None,
                    body,
                    reads_globals: vec![],
                }),
                post: vec![],
                transition: Transition::Halt,
            }],
        }
    }

    fn lowered(p: &PregelProgram) -> Lowered {
        lower(p).unwrap()
    }

    /// The verdict of the single state of `prog_with_body(body)`.
    fn verdict(body: Vec<VInstr>) -> CPull {
        let mut l = lowered(&prog_with_body(body));
        l.kernels.remove(0).expect("vertex state").pull
    }

    fn self_prop(p: &str) -> Expr {
        Expr::prop(SELF, p)
    }

    fn edge_prop(p: &str) -> Expr {
        Expr::prop(EDGE, p)
    }

    fn send(payload: Vec<Expr>) -> VInstr {
        VInstr::SendToNbrs { tag: 0, payload }
    }

    fn write_x(value: Expr) -> VInstr {
        VInstr::WriteOwn {
            prop: "x".into(),
            op: AssignOp::Assign,
            value,
        }
    }

    #[test]
    fn master_only_and_silent_states_are_no_sends() {
        let mut p = prog_with_body(vec![write_x(Expr::int(1))]);
        let silent = lowered(&p).kernels.remove(0).expect("vertex state");
        assert_eq!(silent.pull, CPull::Push);
        p.states[0].vertex = None;
        assert!(lowered(&p).kernels[0].is_none());
    }

    #[test]
    fn plain_payload_is_captured_pullable() {
        // PageRank shape: send(x / Degree()) with a write to x first.
        let degree = Expr::synth(ExprKind::Call {
            obj: SELF.into(),
            method: "Degree".into(),
            args: vec![],
        });
        let v = verdict(vec![
            write_x(Expr::int(3)),
            send(vec![Expr::binary(BinOp::Div, self_prop("x"), degree)]),
        ]);
        assert_eq!(v, CPull::Captured);
    }

    #[test]
    fn guarded_edge_payload_without_writes_is_recompute_pullable() {
        // SSSP shape: If(cond) { send(x + edge.w) }, no writes.
        let v = verdict(vec![VInstr::If {
            cond: self_prop("x"),
            then_branch: vec![send(vec![Expr::binary(
                BinOp::Add,
                self_prop("x"),
                edge_prop("w"),
            )])],
            else_branch: vec![],
        }]);
        assert!(matches!(v, CPull::Recomputed(_)), "{v:?}");
    }

    #[test]
    fn edge_payload_with_written_dep_is_push_only() {
        let v = verdict(vec![
            write_x(Expr::int(1)),
            send(vec![Expr::binary(
                BinOp::Add,
                self_prop("x"),
                edge_prop("w"),
            )]),
        ]);
        assert_eq!(v, CPull::Push);
    }

    #[test]
    fn edge_payload_reading_local_is_push_only() {
        let v = verdict(vec![
            VInstr::Local {
                name: "t".into(),
                op: AssignOp::Assign,
                value: Expr::int(2),
                ty: Ty::Int,
            },
            send(vec![Expr::binary(
                BinOp::Mul,
                Expr::var("t"),
                edge_prop("w"),
            )]),
        ]);
        assert_eq!(v, CPull::Push);
    }

    #[test]
    fn random_writing_send_is_push_only() {
        let v = verdict(vec![VInstr::SendTo {
            dst: self_prop("x"),
            tag: 0,
            payload: vec![Expr::int(1)],
        }]);
        assert_eq!(v, CPull::Push);
    }

    #[test]
    fn multiple_sends_are_push_only() {
        let v = verdict(vec![
            send(vec![Expr::int(1)]),
            VInstr::If {
                cond: self_prop("x"),
                then_branch: vec![send(vec![Expr::int(2)])],
                else_branch: vec![],
            },
        ]);
        assert_eq!(v, CPull::Push);
    }

    #[test]
    fn in_nbrs_preamble_send_id_is_pullable() {
        assert_eq!(verdict(vec![send(vec![Expr::var(SELF)])]), CPull::Captured);
    }

    #[test]
    fn annotate_stamps_every_state() {
        // Lowering decides a verdict for every vertex state; a master-only
        // state gets no kernel and so no verdict.
        let mut p = prog_with_body(vec![send(vec![self_prop("x")])]);
        p.states.push(State {
            master: vec![],
            vertex: None,
            post: vec![],
            transition: Transition::Halt,
        });
        p.states.push(p.states[0].clone());
        let l = lowered(&p);
        assert_eq!(l.kernels.len(), p.states.len());
        let verdicts: Vec<Option<&CPull>> = (l.kernels.iter())
            .map(|k| k.as_ref().map(|k| &k.pull))
            .collect();
        assert_eq!(
            verdicts,
            [Some(&CPull::Captured), None, Some(&CPull::Captured)]
        );
    }
}
