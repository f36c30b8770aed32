package kernel

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/ext2"
)

func TestAssemble(t *testing.T) {
	prog, err := Assemble()
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	// Every subsystem must contribute functions.
	counts := map[string]int{}
	for _, f := range prog.Funcs {
		counts[f.Section]++
	}
	for _, sec := range []string{"arch", "kernel", "mm", "fs"} {
		if counts[sec] < 5 {
			t.Errorf("section %s has only %d functions", sec, counts[sec])
		}
	}
	t.Logf("functions per subsystem: %v", counts)
	// Paper-named functions must exist in their paper subsystems.
	want := map[string]string{
		"do_page_fault":        "arch",
		"system_call":          "arch",
		"schedule":             "kernel",
		"reschedule_idle":      "kernel",
		"do_fork":              "kernel",
		"zap_page_range":       "mm",
		"do_generic_file_read": "mm",
		"do_wp_page":           "mm",
		"rmqueue":              "mm",
		"open_namei":           "fs",
		"link_path_walk":       "fs",
		"get_hash_table":       "fs",
		"pipe_read":            "fs",
		"generic_commit_write": "fs",
		"sys_read":             "fs",
	}
	for fn, sec := range want {
		f, ok := prog.FuncByName(fn)
		if !ok {
			t.Errorf("function %s missing", fn)
			continue
		}
		if f.Section != sec {
			t.Errorf("function %s in section %s, want %s", fn, f.Section, sec)
		}
		if f.Size == 0 {
			t.Errorf("function %s has zero size", fn)
		}
	}
}

// TestParallelBootsShareProgram: concurrent boots, as parallel workers
// and retry reboots make them, share one linked program, and it equals
// a fresh assembly. Run under -race it also shows that boots only read
// it.
func TestParallelBootsShareProgram(t *testing.T) {
	progs := make([]*asm.Program, 4)
	errs := make([]error, len(progs))
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := Boot()
			if err == nil {
				progs[i] = m.Prog
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("boot %d: %v", i, err)
		}
		if progs[i] != progs[0] {
			t.Fatalf("boot %d linked its own program", i)
		}
	}
	fresh, err := Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(progs[0], fresh) {
		t.Fatal("the shared program differs from a fresh assembly")
	}
}

func TestBoot(t *testing.T) {
	m, err := Boot()
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	// After init, current must be task 0 with pid 1.
	if slot := m.CurrentSlot(); slot != 0 {
		t.Fatalf("current slot = %d, want 0", slot)
	}
	if pid := m.TaskField(0, TaskPid); pid != 1 {
		t.Fatalf("init pid = %d", pid)
	}
	// The superblock cache must be filled by mount_root.
	if v := m.ReadGlobal("sb_nblocks"); v != RamdiskBlocks {
		t.Fatalf("sb_nblocks = %d", v)
	}
	if v := m.ReadGlobal("sb_first_data"); v == 0 {
		t.Fatalf("sb_first_data = 0")
	}
	// The fs is marked mounted on disk, structure still clean.
	rep, err := m.FSCheck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != ext2.StatusClean || !rep.WasMounted {
		t.Fatalf("fs after boot: %v mounted=%v problems=%v", rep.Status, rep.WasMounted, rep.Problems)
	}
	// Frame allocator is loaded.
	if v := m.ReadGlobal("frame_top"); v != NFrames {
		t.Fatalf("frame_top = %d", v)
	}
}

func TestBootBadRootPanics(t *testing.T) {
	// Destroy the fs magic before init runs: mount_root must panic.
	prog, err := Assemble()
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the on-ramdisk superblock and re-run mount_root.
	if err := m.Mem.Write32(RamdiskBase+ext2.SBMagic, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	_, err = m.Call("mount_root")
	var ce *CrashError
	if !errorsAs(err, &ce) || ce.Panic != PanicBadMount {
		t.Fatalf("err = %v, want bad-mount panic", err)
	}
	if !strings.Contains(m.Console.String(), "bad root file system") {
		t.Fatalf("console = %q", m.Console.String())
	}
}

func errorsAs(err error, target interface{}) bool {
	if err == nil {
		return false
	}
	if ce, ok := target.(**CrashError); ok {
		if c, ok2 := err.(*CrashError); ok2 {
			*ce = c
			return true
		}
	}
	return false
}

func TestSyscallGetpid(t *testing.T) {
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	ret, err := m.Syscall(SysGetpid)
	if err != nil {
		t.Fatalf("getpid: %v", err)
	}
	if ret != 1 {
		t.Fatalf("getpid = %d, want 1 (init)", ret)
	}
	// Unknown syscall numbers return -ENOSYS.
	ret, err = m.Syscall(167)
	if err != nil || ret != -ENOSYS {
		t.Fatalf("ni syscall = %d, %v", ret, err)
	}
	ret, err = m.Syscall(9999)
	if err != nil || ret != -ENOSYS {
		t.Fatalf("out-of-range syscall = %d, %v", ret, err)
	}
}

func TestSyscallUmask(t *testing.T) {
	m, err := Boot()
	if err != nil {
		t.Fatal(err)
	}
	old, err := m.Syscall(SysUmask, 0o22)
	if err != nil || old != 0x12 {
		t.Fatalf("umask = %d, %v", old, err)
	}
	old, err = m.Syscall(SysUmask, 0)
	if err != nil || old != 0o22 {
		t.Fatalf("second umask = %d, %v", old, err)
	}
}
