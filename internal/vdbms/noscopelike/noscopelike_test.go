package noscopelike

import (
	"errors"
	"testing"

	"repro/internal/queries"
	"repro/internal/vdbms"
	"repro/internal/vdbms/vdbmstest"
)

func TestSupportsOnlyQ1AndQ2c(t *testing.T) {
	e := NewDefault()
	for _, q := range queries.AllQueries {
		want := q == queries.Q1 || q == queries.Q2c
		if e.Supports(q) != want {
			t.Errorf("Supports(%s) = %v, want %v", q, e.Supports(q), want)
		}
	}
}

func TestUnsupportedQueryError(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 1)
	e := NewDefault()
	inst := fx.Instance(queries.Q2a, queries.Params{})
	err := e.Execute(inst, vdbmstest.NewCollectSink())
	var unsup *vdbms.ErrUnsupported
	if !errors.As(err, &unsup) {
		t.Fatalf("Q2(a) = %v, want ErrUnsupported", err)
	}
}

func TestQ1Executes(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 1)
	e := NewDefault()
	sink := vdbmstest.NewCollectSink()
	inst := fx.Instance(queries.Q1, fx.DefaultParams(t, queries.Q1))
	if err := e.Execute(inst, sink); err != nil {
		t.Fatal(err)
	}
	w, h := sink.Outputs["out"].Resolution()
	if w != 64 || h != 48 {
		t.Errorf("Q1 output %dx%d, want 64x48", w, h)
	}
}

func TestQ2cExecutes(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 2)
	e := NewDefault()
	sink := vdbmstest.NewCollectSink()
	inst := fx.Instance(queries.Q2c, fx.DefaultParams(t, queries.Q2c))
	if err := e.Execute(inst, sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.Outputs["out"].Frames) == 0 {
		t.Error("Q2(c) produced no frames")
	}
}

func TestCascadeSkipsStableFrames(t *testing.T) {
	fx := vdbmstest.NewFixture(t, 3)
	in := fx.Traffic(0)
	v, err := vdbms.Decode(in, 0, len(in.Encoded.Frames), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate the first frame several times: a static prefix the
	// difference detector must skip.
	static := v.Clone()
	for i := range static.Frames {
		static.Frames[i] = v.Frames[0].Clone()
		static.Frames[i].Index = i
	}

	withCascade := New(Options{Cascade: true})
	without := New(Options{Cascade: false})
	inst := &vdbms.QueryInstance{Query: queries.Q2c, Params: fx.DefaultParams(t, queries.Q2c), Inputs: []*vdbms.Input{in}}
	// Behavioral check via diffScore: identical frames score 0 and are
	// below any positive threshold.
	if s := withCascade.diffScore(static.Frames[0], static.Frames[1]); s != 0 {
		t.Errorf("identical frames diff score %v", s)
	}
	// Moving city frames exceed the threshold at least somewhere.
	exceeded := false
	for i := 1; i < len(v.Frames); i++ {
		if withCascade.diffScore(v.Frames[i-1], v.Frames[i]) >= withCascade.opt.DiffThreshold {
			exceeded = true
			break
		}
	}
	if !exceeded {
		t.Log("note: no frame pair exceeded the diff threshold in this fixture")
	}
	// Both configurations must produce valid outputs on the real input.
	for _, e := range []*Engine{withCascade, without} {
		sink := vdbmstest.NewCollectSink()
		if err := e.Execute(inst, sink); err != nil {
			t.Fatal(err)
		}
		if len(sink.Outputs["out"].Frames) != len(v.Frames) {
			t.Error("output frame count mismatch")
		}
	}
}

func TestQueryLOCSmall(t *testing.T) {
	// The paper's Figure 7: invoking NoScope takes only a few lines.
	e := NewDefault()
	q1, _ := e.QueryLOC(queries.Q1)
	q2c, ext := e.QueryLOC(queries.Q2c)
	if q1 <= 0 || q2c <= 0 {
		t.Error("supported queries should have positive LOC")
	}
	if q1 > 25 || q2c > 25 {
		t.Errorf("NoScope invocation LOC (%d, %d) should be small", q1, q2c)
	}
	if ext == 0 {
		t.Error("the cascade counts as extension code")
	}
}
