//! Concurrency stress for the multi-tenant frontend: eight tenant
//! threads drive one `TenantFrontend` over one `Arc<SharedEas>`.
//! Admission accounting must stay consistent under races, queues must
//! respect their bounds, and kernel execution — which runs outside the
//! admission lock — must still converge the shared table exactly like
//! the tenancy-free stress test does.

use easched_core::{
    EasConfig, Objective, PowerCurve, PowerModel, SharedEas, TenantFrontend, WorkloadClass,
};
use easched_num::Polynomial;
use easched_runtime::test_support::FakeBackend;
use easched_runtime::{AdmissionConfig, AdmissionOutcome, Backend, TenantRegistry, TenantSpec};
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 40;

fn flat_model(watts: f64) -> PowerModel {
    let curves = WorkloadClass::all()
        .into_iter()
        .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
        .collect();
    PowerModel::new("flat", curves)
}

fn frontend() -> Arc<TenantFrontend> {
    let shared = SharedEas::new(flat_model(50.0), EasConfig::new(Objective::Time));
    let tenants = (0..THREADS)
        .map(|t| TenantSpec::new(format!("t{t}"), 1.0).with_queue_cap(4))
        .collect();
    Arc::new(TenantFrontend::new(
        shared,
        TenantRegistry::new(tenants),
        AdmissionConfig::default(),
    ))
}

#[test]
fn eight_tenant_threads_keep_admission_consistent() {
    let frontend = frontend();
    std::thread::scope(|s| {
        for tenant in 0..THREADS {
            let frontend = Arc::clone(&frontend);
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    let outcome = frontend.offer(tenant);
                    assert!(
                        matches!(
                            outcome,
                            AdmissionOutcome::Admit { .. }
                                | AdmissionOutcome::Queue { .. }
                                | AdmissionOutcome::Shed { .. }
                        ),
                        "offers always resolve to a typed outcome"
                    );
                    // Each thread drains one slot and executes whatever
                    // tenant's request it won — execution happens outside
                    // the admission lock, on the shared table.
                    for (winner, _ticket) in frontend.drain(1) {
                        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
                        frontend.schedule(winner, 7, &mut b);
                        assert_eq!(b.remaining(), 0, "request must drain its backend");
                        frontend.complete(winner, 0.005);
                    }
                }
            });
        }
    });

    assert!(frontend.queues_bounded(), "caps hold under racing offers");
    let mut executed = 0.0;
    for t in 0..THREADS {
        let st = frontend.tenant_stats(t);
        assert_eq!(
            st.offered,
            st.admitted + st.queued + st.shed,
            "tenant {t}: every offer is admitted, queued, or shed"
        );
        assert_eq!(st.offered, ROUNDS as u64);
        executed += st.gpu_seconds;
    }
    assert!(executed > 0.0, "some requests must have executed");

    // The shared table saw only real executions: a single learned alpha,
    // exactly as the tenancy-free path would produce it.
    assert!(frontend.shared().learned_alpha(7).is_some());
}
