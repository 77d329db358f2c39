#!/bin/sh
# Tier-1+ gate: everything the repo requires before a change lands.
# Extends the tier-1 command (go build + go test) with vet and the race
# detector, which the parallel execution kernel makes load-bearing.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== ddbench module (vet + build; the root ./... does not include it)"
(cd ddbench && go vet ./... && go build -o /dev/null ./...)

echo "== go test -race ./..."
go test -race ./...

echo "== fault suite (crash recovery + WAL corruption, -count=2)"
go test -race -run 'Crash|Fault' -count=2 ./internal/oltp/ ./internal/faultfs/

echo "== metrics suite (registry + trace + exposition under race, -count=2)"
go test -race -count=2 ./internal/obs/
go test -race -run 'Trace|Metrics|ErrorCounter' ./internal/server/

echo "== refresh-equivalence soak (randomized commit/refresh interleavings, -count=2)"
go test -race -run 'TestRefresh' -count=2 ./internal/refresh/
go test -race -run 'TestTailWAL|TestTailer' ./internal/oltp/ ./internal/cdc/

echo "== refresh-equivalence soak per column encoding (flat/packed/rle forced)"
for enc in flat packed rle; do
	echo "   -- DDGMS_FORCE_ENCODING=$enc"
	DDGMS_FORCE_ENCODING=$enc go test -race -run 'TestRefresh' ./internal/refresh/
done

echo "== encoding equivalence battery (coded kernels vs scalar oracle)"
go test -race -run 'TestEncodingEquivalence|Fuzz' ./internal/exec/

echo "== allocation regression gate (arena kernel, no race detector)"
go test -run 'TestGroupByCodedAllocBudget|TestEncodedColumnBytesReduction' .

echo "== replication partition soak (fault sweep, kill/restart, figure equivalence)"
go test -race -run 'TestFaultSweep|TestFollowerRestart|TestPrimaryDiskBounded|TestSnapshotBootstrap' -count=2 ./internal/repl/
go test -race -count=1 ./internal/faultnet/
go test -race -run 'TestReplicaFiguresMatchPrimary' -count=1 ./internal/core/
go test -race -run 'TestApplyReplicated|TestPinWALAtDurable|TestRetentionFloor' -count=1 ./internal/oltp/

echo "== failover suite (promotion, fencing, routing front smoke)"
go test -race -count=2 ./internal/router/
go test -race -run 'TestRouterClassifiesEveryRoute|TestHandlePromote' ./internal/server/
sh scripts/failover_soak.sh -auto

echo "== governance suite (cancellation, admission, budgets, breaker)"
go test -race -run 'Cancel|Budget|Admission|Breaker|Timeout|Shutdown' \
	./internal/exec/ ./internal/govern/ ./internal/server/ ./internal/refresh/
sh scripts/soak.sh

echo "== loadgen smoke (open-loop run against self-serve target, zero 5xx)"
sh scripts/loadgen_smoke.sh

echo "check: OK"
