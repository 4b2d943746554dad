// Quickstart: boot an in-process DHARMA overlay, publish a few tagged
// resources, and run a faceted search — the end-to-end loop of the
// paper in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dharma"
)

func main() {
	// 16 overlay nodes, approximated maintenance with connection
	// parameter k=5 (a tagging operation costs at most 4+5 lookups).
	sys, err := dharma.NewSystem(dharma.Config{Nodes: 16, Mode: dharma.Approximated, K: 5, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Shutdown()

	// Every operation takes a context; cancel it (or let a deadline
	// expire) and the in-flight overlay RPCs are aborted.
	ctx := context.Background()
	fmt.Printf("overlay up: %d nodes\n\n", sys.Size())

	// Any peer can publish. Tags connect the resource into the
	// folksonomy graph.
	alice := sys.Peer(3)
	resources := []struct {
		name, uri string
		tags      []string
	}{
		{"norwegian-wood", "magnet:?xt=nw", []string{"rock", "60s", "beatles", "folk-rock"}},
		{"yesterday", "magnet:?xt=yd", []string{"rock", "60s", "beatles", "ballad"}},
		{"paranoid-android", "magnet:?xt=pa", []string{"rock", "90s", "radiohead"}},
		{"karma-police", "magnet:?xt=kp", []string{"rock", "90s", "radiohead", "ballad"}},
		{"take-five", "magnet:?xt=t5", []string{"jazz", "instrumental", "50s"}},
	}
	for _, r := range resources {
		if err := alice.InsertResource(ctx, r.name, r.uri, r.tags); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published %-18s tags=%v\n", r.name, r.tags)
	}

	// Collaborative tagging: another user refines an existing resource.
	bob := sys.Peer(9)
	// A per-call bound is a derived context: this tag gets 100ms.
	tctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err = bob.Tag(tctx, "take-five", "brubeck")
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bob tagged take-five with 'brubeck'")

	// One search step: what relates to "rock"? (2 overlay lookups)
	related, res, err := bob.SearchStep(ctx, "rock")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch step on 'rock': %d related tags, %d resources\n", len(related), len(res))
	for i, w := range related {
		if i == 5 {
			break
		}
		fmt.Printf("  sim(rock, %s) = %d\n", w.Name, w.Weight)
	}

	// Faceted navigation: refine until few resources remain.
	nav, err := bob.Navigate(ctx, "rock", dharma.First, dharma.NavOptions{MinResources: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnavigation path: %v (%s)\n", nav.Path, nav.Reason)
	fmt.Printf("resources satisfying the conjunction: %v\n", nav.FinalResources)

	// Resolve a result to its URI (block type 4).
	if len(nav.FinalResources) > 0 {
		uri, err := bob.ResolveURI(ctx, nav.FinalResources[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resolved %s -> %s\n", nav.FinalResources[0], uri)
	}
	fmt.Printf("\nbob's total block operations (overlay lookups): %d\n", bob.Lookups())
}
