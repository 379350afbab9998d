package caf_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAPISurface lists every exported identifier of package caf: its
// functions, types, constants and variables, and the methods of its
// exported types as Type.Method. A change that adds, removes or renames
// one edits this list, so the public surface shows up in review as a
// diff.
func TestAPISurface(t *testing.T) {
	want := []string{
		"Allow",
		"AllowAny",
		"AllowNone",
		"AllowRead",
		"AllowWrite",
		"BAnd",
		"BOr",
		"BXor",
		"Coalescing",
		"Coarray",
		"Coarray.At",
		"Coarray.ElemBytes",
		"Coarray.Len",
		"Coarray.Local",
		"Coarray.Sec",
		"Coarray.SecStride",
		"Coarray.Team",
		"Coarray2D",
		"Coarray2D.At",
		"Coarray2D.Col",
		"Coarray2D.ColSeg",
		"Coarray2D.Cols",
		"Coarray2D.Flat",
		"Coarray2D.Local",
		"Coarray2D.Row",
		"Coarray2D.RowSeg",
		"Coarray2D.Rows",
		"Coarray2D.Team",
		"CollOpt",
		"Collective",
		"Collective.LocalDataDone",
		"Collective.LocalOpDone",
		"Collective.Op",
		"Collective.Result",
		"Collective.WaitLocalData",
		"Collective.WaitLocalOp",
		"CompletionLevel",
		"CompletionLevel.String",
		"Config",
		"Conflict",
		"CopyAsync",
		"CopyOpt",
		"DataEvent",
		"DeadlockError",
		"DeadlockError.Error",
		"DeadlockError.Unwrap",
		"DefaultFabric",
		"DefaultHeartbeat",
		"DestEvent",
		"Event",
		"Event.Owner",
		"Event.String",
		"FabricConfig",
		"FabricStats",
		"FailureDetectorConfig",
		"FaultPlan",
		"FlushByBarrier",
		"FlushBySize",
		"FlushByTimer",
		"Get",
		"GetInto",
		"GlobalCompletion",
		"HypercubeNeighbors",
		"Image",
		"Image.Allreduce",
		"Image.AllreduceAsync",
		"Image.Alltoall",
		"Image.AlltoallAsync",
		"Image.Barrier",
		"Image.BarrierAsync",
		"Image.Broadcast",
		"Image.BroadcastAsync",
		"Image.Cofence",
		"Image.CofenceOp",
		"Image.Compute",
		"Image.EventCount",
		"Image.EventNotify",
		"Image.EventTryWait",
		"Image.EventWait",
		"Image.Finish",
		"Image.Gather",
		"Image.GatherAsync",
		"Image.Lock",
		"Image.Machine",
		"Image.MaxSpawnPayload",
		"Image.NewEvent",
		"Image.NewPollSet",
		"Image.Now",
		"Image.NumImages",
		"Image.PathScope",
		"Image.Payload",
		"Image.PendingImplicitOps",
		"Image.Random",
		"Image.Rank",
		"Image.Reduce",
		"Image.ReduceAsync",
		"Image.Scan",
		"Image.ScanAsync",
		"Image.Scatter",
		"Image.ScatterAsync",
		"Image.SortAsync",
		"Image.SortKeys",
		"Image.Spawn",
		"Image.SpawnHandle",
		"Image.SpawnRecord",
		"Image.String",
		"Image.TeamSplit",
		"Image.Unlock",
		"Image.World",
		"ImageFailedError",
		"ImageWaitState",
		"Inline",
		"InlineParkError",
		"InlineParkError.Error",
		"Local",
		"LocalCompletion",
		"LocalData",
		"Machine",
		"Machine.AnyImageDead",
		"Machine.ConflictDetails",
		"Machine.ConflictLog",
		"Machine.Conflicts",
		"Machine.DeadImages",
		"Machine.DeathCommitted",
		"Machine.DetectsFailures",
		"Machine.Engine",
		"Machine.Epoch",
		"Machine.FabricStats",
		"Machine.FinishRoundTimes",
		"Machine.ImageDead",
		"Machine.ImageDeadAt",
		"Machine.ImageErrors",
		"Machine.Launch",
		"Machine.Lifecycle",
		"Machine.Metrics",
		"Machine.PathTracker",
		"Machine.Profile",
		"Machine.ReplStats",
		"Machine.ReplicaOf",
		"Machine.RunToCompletion",
		"Machine.Shutdown",
		"Machine.Trace",
		"Machine.WriteProfile",
		"Max",
		"MetricsSnapshot",
		"Microsecond",
		"Millisecond",
		"Min",
		"Nanosecond",
		"NewCoarray",
		"NewCoarray2D",
		"NewMachine",
		"NewReplCoarray",
		"Op",
		"Op.Done",
		"Op.Initiator",
		"Op.Kind",
		"Op.OnGlobalCompletion",
		"Op.OnLocalCompletion",
		"Op.OnLocalData",
		"Op.Then",
		"OpEvent",
		"PathCtx",
		"PollSet",
		"PollSet.Add",
		"PollSet.Drain",
		"PollSet.OnGlobalCompletion",
		"PollSet.OnLocalCompletion",
		"PollSet.OnLocalData",
		"PollSet.Pending",
		"PollSet.Poll",
		"PollSet.Ready",
		"PollSet.Wait",
		"Pred",
		"Prod",
		"Put",
		"ReduceOp",
		"ReplCoarray",
		"ReplCoarray.Apply",
		"ReplCoarray.Backup",
		"ReplCoarray.Len",
		"ReplCoarray.Read",
		"ReplCoarray.Serving",
		"ReplStats",
		"ReplicationConfig",
		"Report",
		"Run",
		"Sec",
		"Sec.Len",
		"Second",
		"Shipper",
		"SpawnFn",
		"SpawnFn.Ship",
		"SpawnOpt",
		"SrcEvent",
		"Sum",
		"Team",
		"Time",
		"WithBytes",
		"WithEvent",
		"WithPayload",
	}
	got := exportedNames(t)
	if !slices.Equal(got, want) {
		t.Errorf("package caf's exported identifiers changed:\n got %d %q\nwant %d %q", len(got), got, len(want), want)
	}
}

// exportedNames parses the package's non-test Go files and returns their
// exported identifiers, sorted.
func exportedNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(fset, ".", notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["caf"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					got = append(got, d.Name.Name)
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					got = append(got, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	return got
}

// receiverType is the name of a method's receiver type: T of T, *T, T[P]
// and *T[P].
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	return e.(*ast.Ident).Name
}
