"""
Relabeling a shuffled room from a single camera stop
====================================================

Overnight, every box in a small storage room gets nudged: positions drift,
yaws twist.  The boxes all look alike, so when the camera next looks at the
room it sees anonymous detections and has to decide which old identity each
one corresponds to.  This script builds a room, shuffles it, observes it
from one stop of the patrol route, and recovers the labels.
"""

from relabel import (
    NoiseModel,
    camera_stops,
    derive_seed,
    generate_scene,
    patrol_route,
    perturb_layout,
    prepare_problem,
    solve,
    synthesize_observation,
    visible_objects,
)

# The "M2" archetype is a mid-density room: a handful of storage sites with
# look-alike boxes clustered around them.
layout = generate_scene("M2", seed=3)
print(f"scene {layout.name}: {len(layout.objects)} objects, "
      f"{len(layout.sites)} sites, "
      f"{layout.bounds.width:.0f}x{layout.bounds.depth:.0f} m floor")

# Shuffle the room: ~0.25 m position jitter and ~10 degrees of yaw jitter
# per object, clamped to the walls.
noise = NoiseModel(t_mean=0.0, t_sd=0.25, r_mean=0.0, r_sd=10.0)
shuffled = perturb_layout(layout, noise, derive_seed(99, 0))

# The camera patrols a fixed loop through the sites and pauses at evenly
# spaced stops.  Pick one stop with a decent view.
stops = camera_stops(patrol_route(layout))
camera = max(stops, key=lambda c: len(visible_objects(shuffled, c)))
observation = synthesize_observation(shuffled, camera)
truth = [o.label for o in visible_objects(shuffled, camera)]
print(f"camera at ({camera.position[0]:.1f}, {camera.position[1]:.1f}), "
      f"yaw {camera.yaw:.0f} deg: {len(observation.detections)} detections")

# Resolve identities against the remembered (pre-shuffle) layout.  The
# threshold keeps only the likeliest storage sites as label sources; 0.6
# covers the closest sites while skipping the far side of the room.  The
# prepared problem's plan says which sites and labels pruning kept.
prepared = prepare_problem(layout, observation, threshold=0.6)
result = solve(prepared.problem)
plan = prepared.plan
print(f"candidate pool {len(plan.candidates)} labels from "
      f"{len(plan.kept_site_ids)} kept sites "
      f"(effective threshold {plan.effective_threshold:.2f})")
print()

print(f"{'detection':>9}  {'at (x, z)':>12}  {'assigned':>9}  {'true':>9}  ok")
correct = 0
for i, det in enumerate(observation.detections):
    got = result.mapping[i]
    ok = got == truth[i]
    correct += ok
    mark = "yes" if ok else "NO"
    print(f"{i:>9}  ({det.pose.x:4.1f}, {det.pose.z:4.1f})  "
          f"{got:>9}  {truth[i]:>9}  {mark}")
print()
print(f"{correct}/{len(truth)} labels recovered, "
      f"assignment cost {result.total_cost:.4f}")
