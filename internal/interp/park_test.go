package interp_test

import (
	"testing"

	"clgen/internal/clc"
	"clgen/internal/interp"
)

// parkCfg runs two groups of four work-items, so that work-items serve a
// second group after the first.
var parkCfg = interp.RunConfig{GlobalSize: [3]int{8, 1, 1}, LocalSize: [3]int{4, 1, 1}, MaxSteps: 1 << 14}

// runParked runs kernel A of src with FuzzRun's declared arguments on
// parking work-items and on goroutines (NewGoroutineEnv), requires the
// two outcomes to agree on every buffer, MaxSlot, the Profile and the
// error, and returns the parking one with its arguments. park is whether
// A's work-items should park.
func runParked(t *testing.T, src string, park bool, cfg interp.RunConfig) (runRecord, []interp.Value) {
	t.Helper()
	file, err := clc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := clc.Check(file); err != nil {
		t.Fatal(err)
	}
	env, err := interp.NewEnv(file)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := interp.NewGoroutineEnv(file)
	if err != nil {
		t.Fatal(err)
	}
	if env.Parks("A") != park {
		t.Fatalf("Parks(A) = %v, want %v", !park, park)
	}
	fd, err := env.Kernel("A")
	if err != nil {
		t.Fatal(err)
	}
	args, _ := fuzzArgs(fd, argsDeclared)
	prof, err := env.Run("A", args, cfg)
	got := outcome("A", prof, err, args)
	refArgs, _ := fuzzArgs(fd, argsDeclared)
	refProf, refErr := ref.Run("A", refArgs, cfg)
	for _, d := range diffRecords(got, outcome("A", refProf, refErr, refArgs)) {
		t.Errorf("parked %s (goroutines)", d)
	}
	return got, args
}

func TestParkInBothBranches(t *testing.T) {
	rec, args := runParked(t, `__kernel void A(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  t[lid] = lid * 10;
  if (lid % 2 == 0) {
    barrier(CLK_LOCAL_MEM_FENCE);
    a[get_global_id(0)] = t[lid + 1];
  } else {
    int x = t[lid - 1];
    barrier(CLK_LOCAL_MEM_FENCE);
    a[get_global_id(0)] = x + t[(lid + 1) % 4];
  }
}`, true, parkCfg)
	if rec.Err != "" {
		t.Fatal(rec.Err)
	}
	want := []int64{10, 20, 30, 20, 10, 20, 30, 20}
	for i, w := range want {
		if got := args[0].Ptr.Buf.I[i]; got != w {
			t.Errorf("a[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestParkInWhileAndDoLoops(t *testing.T) {
	rec, _ := runParked(t, `__kernel void A(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  int i = 0;
  t[lid] = lid;
  while (i < 6) {
    i++;
    if (i == 2)
      continue;
    barrier(CLK_LOCAL_MEM_FENCE);
    int next = t[(lid + 1) % 4];
    barrier(CLK_LOCAL_MEM_FENCE);
    t[lid] += next;
    if (i == 5)
      break;
  }
  int j = 0;
  do {
    barrier(CLK_LOCAL_MEM_FENCE);
    a[get_global_id(0)] += t[(lid + j) % 4];
    j++;
    if (j == 1)
      continue;
    barrier(CLK_LOCAL_MEM_FENCE);
  } while (j < 3);
}`, true, parkCfg)
	if rec.Err != "" || rec.Profile.Barriers != 8*(2*4+3+2) {
		t.Fatalf("err %q, %d barriers", rec.Err, rec.Profile.Barriers)
	}
}

func TestParkInNestedLoops(t *testing.T) {
	rec, _ := runParked(t, `__kernel void A(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  t[lid] = a[lid];
  for (int i = 0; i < 3; i++) {
    for (int s = 2; s > 0; s >>= 1) {
      barrier(CLK_LOCAL_MEM_FENCE);
      if (lid < s)
        t[lid] += t[lid + s];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    a[8 * i + get_global_id(0)] = t[lid];
  }
}`, true, parkCfg)
	if rec.Err != "" || rec.Profile.Barriers != 8*3*3 {
		t.Fatalf("err %q, %d barriers", rec.Err, rec.Profile.Barriers)
	}
}

func TestParkDivergence(t *testing.T) {
	for name, src := range map[string]string{
		"if": `__kernel void A(__global int* a) {
  int lid = get_local_id(0);
  a[lid] = 1;
  if (lid < 2) barrier(CLK_LOCAL_MEM_FENCE);
  a[lid] += 1;
}`,
		"return": `__kernel void A(__global int* a) {
  int lid = get_local_id(0);
  if (lid == 3)
    return;
  barrier(CLK_LOCAL_MEM_FENCE);
  a[lid] = 1;
}`,
	} {
		t.Run(name, func(t *testing.T) {
			if rec, _ := runParked(t, src, true, parkCfg); rec.Class != "barrier-divergence" {
				t.Fatalf("err = %q, want barrier divergence", rec.Err)
			}
		})
	}
}

// A name a declaration binds through a scope cell (here the bare body of
// an if) stays bound when the work-item resumes into the scope.
func TestParkKeepsScopeCells(t *testing.T) {
	rec, args := runParked(t, `__kernel void A(__global int* a) {
  int lid = get_local_id(0);
  int x = 1;
  if (lid > 0)
    int x = lid * 3;
  barrier(CLK_GLOBAL_MEM_FENCE);
  a[lid] = x;
}`, true, parkCfg)
	if got := args[0].Ptr.Buf.I[:4]; rec.Err != "" || got[0] != 1 || got[1] != 3 || got[2] != 6 || got[3] != 9 {
		t.Errorf("a[:4] = %v (err %q), want [1 3 6 9]", got, rec.Err)
	}
}

// A step limit in the middle of a phase ends the launch: the work-items
// after the one that ran out do not run that phase.
func TestParkStepLimitMidPhase(t *testing.T) {
	cfg := parkCfg
	cfg.MaxSteps = 400
	rec, args := runParked(t, `__kernel void A(__global int* a) {
  int lid = get_local_id(0);
  a[lid] = 1;
  barrier(CLK_GLOBAL_MEM_FENCE);
  a[lid] = 2;
  if (lid == 1) {
    while (1)
      a[8] += 1;
  }
  a[lid] = 3;
}`, true, cfg)
	if rec.Class != "step-limit" || rec.Profile.Steps != cfg.MaxSteps+1 {
		t.Fatalf("err %q after %d steps, want a step limit after %d", rec.Err, rec.Profile.Steps, cfg.MaxSteps+1)
	}
	if got := args[0].Ptr.Buf.I[:4]; got[0] != 3 || got[1] != 2 || got[2] != 1 || got[3] != 1 {
		t.Errorf("a[:4] = %v, want [3 2 1 1]", got)
	}
}

func TestParkFaultInSecondPhase(t *testing.T) {
	rec, args := runParked(t, `__kernel void A(__global int* a) {
  int lid = get_local_id(0);
  a[lid] = 7;
  barrier(CLK_GLOBAL_MEM_FENCE);
  a[lid * 32] = lid;
}`, true, parkCfg)
	want := interp.MemFault{Arg: -1, Slot: 64, Len: 64, Write: true}
	if rec.Fault == nil || *rec.Fault != want {
		t.Fatalf("fault = %+v (err %q), want %+v", rec.Fault, rec.Err, want)
	}
	if got := args[0].Ptr.Buf.I[:4]; got[0] != 0 || got[1] != 7 || got[2] != 7 || got[3] != 7 {
		t.Errorf("a[:4] = %v, want [0 7 7 7]", got)
	}
}

// Barriers a work-item cannot park at keep it on a goroutine.
func TestParkFallbacks(t *testing.T) {
	for name, src := range map[string]string{
		"helper": `void sync(__local int* t, int lid) {
  barrier(CLK_LOCAL_MEM_FENCE);
  t[lid] += t[(lid + 1) % 4];
}
__kernel void A(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  t[lid] = lid;
  sync(t, lid);
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] = t[(lid + 1) % 4];
}`,
		"switch": `__kernel void A(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  t[lid] = lid;
  switch (a[0]) {
  case 0:
    barrier(CLK_LOCAL_MEM_FENCE);
    a[get_global_id(0)] = t[(lid + 1) % 4];
    break;
  default:
    a[get_global_id(0)] = -1;
  }
}`,
		"for initializer": `__kernel void A(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  t[lid] = lid;
  for (barrier(CLK_LOCAL_MEM_FENCE); lid < 4; lid += 4) {
    a[get_global_id(0)] = t[(lid + 1) % 4];
  }
}`,
		"kernel callee": `__kernel void B(__global int* a, __local int* t) {
  int lid = get_local_id(0);
  t[lid] = lid;
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] = t[(lid + 1) % 4];
}
__kernel void A(__global int* a, __local int* t) {
  B(a, t);
  barrier(CLK_LOCAL_MEM_FENCE);
  a[get_global_id(0)] += 1;
}`,
	} {
		t.Run(name, func(t *testing.T) {
			if rec, _ := runParked(t, src, false, parkCfg); rec.Err != "" {
				t.Fatal(rec.Err)
			}
		})
	}
}
