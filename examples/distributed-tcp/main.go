// distributed-tcp: the same subgraph-centric CC computation as
// examples/social-cc, but with workers exchanging replica updates over a
// real TCP loopback mesh (ebv.NewTCPMeshDeployment, one job opened on
// it). Every frame is wire v4 — compressed columns sealed with a CRC-32C
// — and each worker's end of the mesh is the same endpoint a
// multi-process run builds with ebv.NewTCPWorker (ebv-worker -peers, the
// cluster's workers), wired the same way.
//
// Run with: go run ./examples/distributed-tcp
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ebv"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	g, err := ebv.PowerLaw(ebv.PowerLawConfig{
		NumVertices: 20000,
		NumEdges:    120000,
		Eta:         2.4,
		Directed:    false,
		Seed:        13,
	})
	if err != nil {
		return err
	}

	const workers = 4
	a, err := ebv.NewEBV().Partition(g, workers)
	if err != nil {
		return err
	}
	subs, err := ebv.BuildSubgraphs(g, a)
	if err != nil {
		return err
	}

	mesh, err := ebv.NewTCPMeshDeployment(context.Background(), workers)
	if err != nil {
		return err
	}
	defer mesh.Close()
	transports, err := mesh.OpenJob(1, 1) // job 1, one float per message
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := ebv.RunBSP(subs, &ebv.CC{}, ebv.RunConfig{Transports: transports})
	if err != nil {
		return err
	}
	fmt.Printf("CC over %d TCP workers: %d supersteps in %v\n",
		workers, res.Steps, time.Since(start).Round(time.Millisecond))
	fmt.Printf("messages on the wire: %d in %d bytes (avg comm per worker %v)\n",
		res.TotalMessages(), mesh.WireBytes(), res.AvgComm().Round(time.Microsecond))

	want := ebv.SequentialCC(g)
	for v := range want {
		if got, ok := res.Value(ebv.VertexID(v)); ok && got != want[v] {
			return fmt.Errorf("TCP result differs from oracle at vertex %d", v)
		}
	}
	fmt.Println("TCP result verified against the sequential oracle ✓")
	return nil
}
