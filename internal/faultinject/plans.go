package faultinject

// Plan-scoped sites.
//
// The execution engine (internal/exec) runs every kernel as a named plan
// and derives two sites per plan: a worker site fired once per processed
// item and an output site fired on the finished result. The generic
// SiteKernelWorker / SiteKernelOutput sites still fire first for every
// plan, so fault-matrix tests that count "any kernel work" keep working;
// the plan-scoped sites let a test target one stage of a multi-stage
// kernel (e.g. only the TTMcTC core product) without touching the stages
// around it. The engine builds a plan's site names only while a hook is
// armed (Active), so a plan started before the first hook is armed fires
// only the generic sites.

// PlanWorkerSite returns the per-item site for the named plan.
func PlanWorkerSite(plan string) Site {
	return SiteKernelWorker + Site("/"+plan)
}

// PlanOutputSite returns the output-inspection site for the named plan.
func PlanOutputSite(plan string) Site {
	return SiteKernelOutput + Site("/"+plan)
}
