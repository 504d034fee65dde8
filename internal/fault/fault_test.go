package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestPlanByName(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := PlanByName(name)
		if err != nil {
			t.Fatalf("PlanByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("plan %q reports name %q", name, p.Name)
		}
	}
	if _, err := PlanByName("no-such-plan"); err == nil {
		t.Fatal("unknown plan accepted")
	}
	if p, err := PlanByName(""); err != nil || p.Name != "none" {
		t.Fatalf("empty plan name: %v %+v", err, p)
	}
}

func TestPlannedScheduleDeterministic(t *testing.T) {
	plan, _ := PlanByName("chaos")
	a := New(plan, 4, 99)
	b := New(plan, 4, 99)
	sa := strings.Join(a.PlannedSchedule(5000), "\n")
	sb := strings.Join(b.PlannedSchedule(5000), "\n")
	if sa != sb {
		t.Fatal("same (plan, sites, seed) produced different planned schedules")
	}
	c := New(plan, 4, 100)
	if sc := strings.Join(c.PlannedSchedule(5000), "\n"); sc == sa {
		t.Fatal("different seeds produced identical drop schedules")
	}
}

func TestScheduleReproducibleSequentially(t *testing.T) {
	plan := Plan{Name: "t", DropRate: 0.2, Events: []Event{
		{At: 10, Kind: Crash, Site: 1},
		{At: 20, Kind: Recover, Site: 1},
	}}
	run := func() []string {
		in := New(plan, 3, 7)
		for i := 0; i < 40; i++ {
			in.Send(0, (i%2)+1) // deterministic single-threaded traffic
		}
		return in.Schedule()
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("schedules differ:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no fault decisions recorded at 20% drop rate")
	}
}

// TestScheduledRecoverWithoutHookIsSynchronous pins when a scheduled
// Recover takes effect when no OnRecover hook is registered: the send
// that fires it still sees the site down, and the site is up as soon
// as that send returns, with no goroutine left to finish the job.
func TestScheduledRecoverWithoutHookIsSynchronous(t *testing.T) {
	in := New(Plan{Name: "t", Events: []Event{
		{At: 2, Kind: Crash, Site: 1},
		{At: 4, Kind: Recover, Site: 1},
	}}, 3, 1)
	if err := in.Send(0, 1); err != nil {
		t.Fatalf("seq 1: %v", err)
	}
	for seq := 2; seq <= 4; seq++ {
		if err := in.Send(0, 1); !errors.Is(err, ErrSiteDown) {
			t.Fatalf("seq %d: send to the crashed site: %v", seq, err)
		}
	}
	if !in.SiteUp(1) {
		t.Fatal("site still down once the send that fired its recovery returned")
	}
	if err := in.Send(0, 1); err != nil {
		t.Fatalf("seq 5: send to the recovered site: %v", err)
	}
}

func TestCrashRejectsTraffic(t *testing.T) {
	in := New(Plan{Name: "t"}, 3, 1)
	if err := in.Send(0, 1); err != nil {
		t.Fatalf("healthy send failed: %v", err)
	}
	in.Crash(1, false)
	if in.SiteUp(1) {
		t.Fatal("crashed site reports up")
	}
	err := in.Send(0, 1)
	if !errors.Is(err, ErrSiteDown) {
		t.Fatalf("send to crashed site: %v", err)
	}
	if got := SiteOf(err); got != 1 {
		t.Fatalf("SiteOf = %d, want 1", got)
	}
	// Sends *from* a crashed site fail too.
	if err := in.Send(1, 0); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("send from crashed site: %v", err)
	}
	in.Recover(1)
	if !in.SiteUp(1) {
		t.Fatal("recovered site reports down")
	}
	if err := in.Send(0, 1); err != nil {
		t.Fatalf("post-recovery send failed: %v", err)
	}
	st := in.Stats()
	if st.Crashes.Value() != 1 || st.Recoveries.Value() != 1 || st.Rejected.Value() != 2 {
		t.Fatalf("stats: crashes=%d recoveries=%d rejected=%d",
			st.Crashes.Value(), st.Recoveries.Value(), st.Rejected.Value())
	}
}

func TestScheduledEventsFireOnLogicalClock(t *testing.T) {
	plan := Plan{Name: "t", Events: []Event{
		{At: 5, Kind: Crash, Site: 2, Drift: true},
		{At: 9, Kind: Recover, Site: 2},
	}}
	var crashed, recovered []int
	done := make(chan struct{})
	in := New(plan, 3, 1)
	in.SetHooks(Hooks{
		OnCrash: func(site int, drift bool) {
			if !drift {
				t.Error("drift flag lost")
			}
			crashed = append(crashed, site)
		},
		OnRecover: func(site int) {
			recovered = append(recovered, site)
			close(done)
		},
	})
	for i := 0; i < 4; i++ {
		if err := in.Send(0, 1); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := in.Send(0, 2); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("send at seq 5 should hit the fresh crash: %v", err)
	}
	if len(crashed) != 1 || crashed[0] != 2 {
		t.Fatalf("crash hook: %v", crashed)
	}
	for i := 0; i < 4; i++ {
		in.Send(0, 1)
	}
	// Scheduled recovery completes asynchronously; the site is only up
	// once the hook has run.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("recovery hook never ran")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !in.SiteUp(2) {
		if time.Now().After(deadline) {
			t.Fatal("site never marked up after recovery")
		}
		time.Sleep(time.Millisecond)
	}
	if len(recovered) != 1 || recovered[0] != 2 {
		t.Fatalf("recover hook: %v", recovered)
	}
}

func TestDropRateApproximate(t *testing.T) {
	in := New(Plan{Name: "t", DropRate: 0.25}, 2, 3)
	drops := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if err := in.Send(0, 1); errors.Is(err, ErrDropped) {
			drops++
		}
	}
	frac := float64(drops) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("drop fraction %.3f far from 0.25", frac)
	}
	if in.Stats().Dropped.Value() != int64(drops) {
		t.Fatal("Dropped counter mismatch")
	}
	// Local sends never drop.
	for i := 0; i < 500; i++ {
		if err := in.Send(1, 1); err != nil {
			t.Fatalf("local send dropped: %v", err)
		}
	}
}

func TestDelayInjected(t *testing.T) {
	in := New(Plan{Name: "t", Delay: 2 * time.Millisecond}, 2, 1)
	start := time.Now()
	for i := 0; i < 20; i++ {
		in.Send(0, 1)
	}
	if time.Since(start) == 0 {
		t.Fatal("no time elapsed under injected delay")
	}
}
