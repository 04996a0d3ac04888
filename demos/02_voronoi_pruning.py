"""
Pruning the label pool with a distance-weighted site partition
==============================================================

Every object belongs to a storage site, and sites far from the camera are
unlikely sources for what it currently sees.  The partition module ranks
the non-containing sites by reciprocal distance, turns the ranks into
probabilities, and a threshold on the cumulative probability decides how
many sites contribute candidate labels.  This script walks through that
pipeline for one camera position and shows how the pool grows with the
threshold, including the feasibility backstop that re-admits sites when
the pruned pool is smaller than the detection count.
"""

from relabel import (
    camera_stops,
    candidate_labels,
    generate_scene,
    patrol_route,
    prepare_problem,
    prune_sites,
    site_probabilities,
    synthesize_observation,
)

layout = generate_scene("H1", seed=0)
camera = camera_stops(patrol_route(layout))[2]
print(f"scene {layout.name}: {len(layout.sites)} sites, "
      f"{len(layout.objects)} objects")
print(f"camera at ({camera.position[0]:.1f}, {camera.position[1]:.1f})")
print()

# Rank the sites for this position.  The containing site is kept
# unconditionally; the others get probability proportional to 1/distance.
probs = site_probabilities(camera, layout.sites)
print(f"containing site: {probs.containing_site} "
      f"(distance {probs.containing_distance:.2f} m)")
print(f"{'site':>6}  {'distance':>8}  {'prob':>6}  {'cumulative':>10}")
for entry in probs.entries:
    print(f"{entry.site_id:>6}  {entry.distance:>8.2f}  "
          f"{entry.probability:>6.3f}  {entry.cumulative:>10.3f}")
print()

# Sweep the threshold.  Kept sites and the labels they contribute grow
# monotonically; threshold 1 keeps everything.
print(f"{'threshold':>9}  {'kept sites':>10}  {'candidate labels':>16}")
for t in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
    kept = prune_sites(probs, t)
    pool = candidate_labels(layout, kept)
    print(f"{t:>9.2f}  {len(kept):>10}  {len(pool):>16}")
print()

# A tiny threshold can leave fewer candidate labels than there are
# detections.  prepare_problem then re-admits sites in rank order until
# the assignment becomes feasible and reports the coverage it actually
# needed as the effective threshold.
observation = synthesize_observation(layout, camera)
plan = prepare_problem(layout, observation, threshold=0.05).plan
print(f"{len(observation.detections)} detections at this stop")
print(f"requested threshold {plan.threshold:.2f} -> "
      f"kept {len(plan.kept_site_ids)} sites, "
      f"{len(plan.candidates)} candidates, "
      f"effective threshold {plan.effective_threshold:.2f}")
