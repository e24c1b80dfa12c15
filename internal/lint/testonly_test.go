package lint

import (
	"go/types"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestTestOnlyAPIPinned lists, exactly, the exported functions and methods
// under internal/ that no non-test file in the module calls — benchmark/ and
// examples/ included, as TestConfigFieldsPinned lists options. What is left
// here observes state for tests, is the product surface a user of the tree
// calls, or is a test harness. A function that acts (schedules, waits,
// transfers, mutates) and that only tests call is a code path tests keep
// alive and a reader must learn, so adding one, or giving a listed one a
// production caller, is a deliberate diff against this list.
//
// Methods that implement an interface declared in a loaded package are
// reached through the interface, so they are not counted; nor are String
// and Error.
func TestTestOnlyAPIPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	t.Parallel()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test source")
	}
	root := filepath.Join(filepath.Dir(file), "..", "..")
	want := []string{
		// Observers: tests read them to check state.
		"cluster.Manager.Epoch",
		"fs.Vol.ExtentCount", "fs.Vol.FreeCount", "fs.Vol.NBlocks", "fs.Vol.NInodes", "fs.Mount",
		"hw.PM.PendingBytes", "hw.PM.PersistAll", "hw.PM.ResidentBytes",
		"rdma.Fabric.Lookup", "rdma.FaultPlane.Partitioned",
		"sim.Env.Live", "sim.Event.Value", "sim.Proc.Name", "sim.Resource.TryAcquire",
		"stats.Latency.Max", "stats.Latency.Min", "stats.Utilization.Busy", "stats.Utilization.Tags",
		"workload.Streamcluster.SoloTime", "workload.VerifySorted",
		// Product surface: the client API, node crash and recovery, and the
		// key-value application model.
		"dfs.Client.Rmdir",
		"core.NICFS.Crash", "core.NICFS.Recover",
		"kvstore.DB.Close", "kvstore.DB.Flush",
		// Test harnesses and the borrow-sanitizer switches tests flip.
		"systems.All",
		"lint.Loader.Fset", "lint.RunTest",
		"compress.BorrowSanitizerEnabled", "compress.SetBorrowSanitizer",
		"fs.BorrowSanitizerEnabled", "fs.IsPoisoned", "fs.SetBorrowSanitizer",
	}
	sort.Strings(want)
	got := testOnlyAPI(t, root, "linefs")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported functions under internal/ with no non-test caller:\n new:  %q\n gone: %q",
			missingFrom(want, got), missingFrom(got, want))
	}
}

// missingFrom returns the entries of b that a lacks.
func missingFrom(a, b []string) []string {
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	var out []string
	for _, s := range b {
		if !in[s] {
			out = append(out, s)
		}
	}
	return out
}

// testOnlyAPI type-checks every package of the module at root and returns
// the exported functions and methods under internal/ that no non-test file
// uses, as "pkg.Func" or "pkg.Type.Method", sorted.
func testOnlyAPI(t *testing.T, root, prefix string) []string {
	t.Helper()
	paths, err := ModulePackages(root, prefix)
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, prefix)
	var pkgs []*Package
	used := make(map[types.Object]bool)
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
		for _, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
	}

	// Every interface declared at package level in a loaded package: the
	// module's own, and the standard library's that it imports.
	var ifaces []*types.Interface
	seen := make(map[*types.Package]bool)
	var collect func(tp *types.Package)
	collect = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			collect(imp)
		}
	}
	for _, pkg := range pkgs {
		collect(pkg.Types)
	}
	viaInterface := func(recv types.Type, name string) bool {
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, prefix+"/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out = append(out, pkg.Types.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					switch {
					case !m.Exported(), used[m], m.Name() == "String", m.Name() == "Error",
						viaInterface(named, m.Name()):
						continue
					}
					out = append(out, pkg.Types.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
